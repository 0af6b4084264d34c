package mpi

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// newWorld builds a Titan machine and a communicator of size ranks with
// rpn ranks per node, and returns a spawner that runs fn on every rank.
func newWorld(t *testing.T, size, rpn int) (*sim.Engine, *hpc.Machine, func(fn func(r *Rank, p *sim.Proc) error)) {
	t.Helper()
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), (size+rpn-1)/rpn)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*hpc.Node, size)
	for i := range nodes {
		nodes[i] = m.Nodes[i/rpn]
	}
	c, err := NewCommExplicit(m, nodes)
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(fn func(r *Rank, p *sim.Proc) error) {
		for i := 0; i < size; i++ {
			r, err := c.Rank(i)
			if err != nil {
				t.Fatal(err)
			}
			e.Spawn("rank", func(p *sim.Proc) error { return fn(r, p) })
		}
	}
	return e, m, spawn
}

func TestSendRecvPayload(t *testing.T) {
	e, _, spawn := newWorld(t, 2, 1)
	spawn(func(r *Rank, p *sim.Proc) error {
		if r.ID() == 0 {
			return r.Send(p, 1, 7, 800, []float64{1, 2, 3})
		}
		msg, err := r.Recv(p, 0, 7)
		if err != nil {
			return err
		}
		if msg.Src != 0 || msg.Bytes != 800 {
			t.Errorf("msg = %+v", msg)
		}
		if !reflect.DeepEqual(msg.Payload, []float64{1, 2, 3}) {
			t.Errorf("payload = %v", msg.Payload)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvByTagOutOfOrder(t *testing.T) {
	e, _, spawn := newWorld(t, 2, 1)
	spawn(func(r *Rank, p *sim.Proc) error {
		if r.ID() == 0 {
			if err := r.Send(p, 1, 1, 0, "first"); err != nil {
				return err
			}
			return r.Send(p, 1, 2, 0, "second")
		}
		// Receive tag 2 before tag 1.
		m2, err := r.Recv(p, 0, 2)
		if err != nil {
			return err
		}
		m1, err := r.Recv(p, 0, 1)
		if err != nil {
			return err
		}
		if m2.Payload.(string) != "second" || m1.Payload.(string) != "first" {
			t.Errorf("tags delivered wrong: %v %v", m1.Payload, m2.Payload)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWireTimeCrossNode(t *testing.T) {
	e, _, spawn := newWorld(t, 2, 1)
	var end sim.Time
	spawn(func(r *Rank, p *sim.Proc) error {
		if r.ID() == 0 {
			if err := r.Send(p, 1, 1, 5_500_000_000, nil); err != nil {
				return err
			}
			end = p.Now()
			return nil
		}
		_, err := r.Recv(p, 0, 1)
		return err
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.0) > 1e-3 {
		t.Fatalf("send time = %v, want ~1 s (5.5 GB at 5.5 GB/s)", end)
	}
}

func TestCommValidation(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommExplicit(m, []*hpc.Node{m.Nodes[0], m.Nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rank(2); !errors.Is(err, ErrRankRange) {
		t.Fatalf("rank 2 of 2: error = %v, want ErrRankRange", err)
	}
	if _, err := c.Rank(-1); !errors.Is(err, ErrRankRange) {
		t.Fatalf("rank -1: error = %v, want ErrRankRange", err)
	}
}

func TestIsendOverlapsTransfers(t *testing.T) {
	// Two non-blocking sends to different peers overlap on the wire.
	e, m, spawn := newWorld(t, 3, 1)
	reg := metrics.NewRegistry(e.Now)
	m.Metrics = reg
	var end sim.Time
	spawn(func(r *Rank, p *sim.Proc) error {
		switch r.ID() {
		case 0:
			ev1, err := r.Isend(p, 1, 1, 5_500_000_000, nil)
			if err != nil {
				return err
			}
			ev2, err := r.Isend(p, 2, 1, 5_500_000_000, nil)
			if err != nil {
				return err
			}
			if err := p.WaitAll(ev1, ev2); err != nil {
				return err
			}
			end = p.Now()
		default:
			_, err := r.Recv(p, 0, 1)
			return err
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both flows share rank 0's 5.5 GB/s egress: 11 GB total -> ~2 s
	// (overlapped), versus ~2 s sequential too -- but crucially not 4 s.
	if end < 1.9 || end > 2.2 {
		t.Fatalf("end = %v, want ~2 (shared egress)", end)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mpi/p2p/msgs"]; got != 2 {
		t.Errorf("mpi/p2p/msgs = %v, want 2", got)
	}
	if got := snap.Counters["mpi/p2p/bytes"]; got != 11_000_000_000 {
		t.Errorf("mpi/p2p/bytes = %v, want 11e9", got)
	}
}

func TestNewCommExplicitPlacement(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*hpc.Node{m.Nodes[2], m.Nodes[0], m.Nodes[2]}
	c, err := NewCommExplicit(m, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(0) != m.Nodes[2] || c.Node(1) != m.Nodes[0] || c.Node(2) != m.Nodes[2] {
		t.Fatal("explicit placement not honoured")
	}
	if _, err := NewCommExplicit(m, nil); err == nil {
		t.Fatal("empty placement accepted")
	}
	if _, err := NewCommExplicit(m, []*hpc.Node{nil}); err == nil {
		t.Fatal("nil node accepted")
	}
}
