package mpi

import (
	"math"
	"reflect"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// newWorld builds a Titan machine and a communicator of size ranks with
// rpn ranks per node, and returns a spawner that runs fn on every rank.
func newWorld(t *testing.T, size, rpn int) (*sim.Engine, *Comm, func(fn func(r *Rank, p *sim.Proc) error)) {
	t.Helper()
	e := sim.NewEngine()
	nNodes := (size + rpn - 1) / rpn
	m, err := hpc.New(e, hpc.Titan(), nNodes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewComm(m, m.Nodes, size, rpn)
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
	return e, c, spawn
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

func TestBarrierSynchronizes(t *testing.T) {
	e, _, spawn := newWorld(t, 4, 2)
	var after []sim.Time
	spawn(func(r *Rank, p *sim.Proc) error {
		// Stagger arrivals: rank i sleeps i seconds.
		if err := p.Sleep(sim.Time(r.ID())); err != nil {
			return err
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		after = append(after, p.Now())
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(after) != 4 {
		t.Fatalf("ranks past barrier = %d", len(after))
	}
	for _, ts := range after {
		if ts < 3 {
			t.Fatalf("rank passed barrier at %v before last arrival at 3", ts)
		}
	}
}

func TestBcastAndGather(t *testing.T) {
	e, _, spawn := newWorld(t, 3, 3)
	spawn(func(r *Rank, p *sim.Proc) error {
		got, err := r.Bcast(p, 0, 8, r.ID()*100+42)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if got.(int) != 42 {
				t.Errorf("root bcast = %v", got)
			}
		} else if got.(int) != 42 {
			t.Errorf("rank %d bcast = %v, want 42", r.ID(), got)
		}
		parts, err := r.Gather(p, 0, 8, r.ID()*10)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			want := []any{0, 10, 20}
			if !reflect.DeepEqual(parts, want) {
				t.Errorf("gather = %v, want %v", parts, want)
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	e, _, spawn := newWorld(t, 4, 2)
	spawn(func(r *Rank, p *sim.Proc) error {
		vals := []float64{float64(r.ID()), 1}
		sum, err := r.AllreduceSum(p, vals)
		if err != nil {
			return err
		}
		if math.Abs(sum[0]-6) > 1e-12 || math.Abs(sum[1]-4) > 1e-12 {
			t.Errorf("rank %d allreduce = %v, want [6 4]", r.ID(), sum)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	e, _, spawn := newWorld(t, n, 2)
	spawn(func(r *Rank, p *sim.Proc) error {
		bytes := make([]int64, n)
		parts := make([]any, n)
		for i := 0; i < n; i++ {
			bytes[i] = 8
			parts[i] = r.ID()*10 + i
		}
		recv, err := r.Alltoallv(p, bytes, parts)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			want := src*10 + r.ID()
			if recv[src].(int) != want {
				t.Errorf("rank %d recv[%d] = %v, want %d", r.ID(), src, recv[src], want)
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubCommIsolation(t *testing.T) {
	e, c, spawn := newWorld(t, 4, 2)
	sub, err := c.Sub([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	spawn(func(r *Rank, p *sim.Proc) error {
		switch r.ID() {
		case 2, 3:
			sr, err := sub.Rank(r.ID() - 2)
			if err != nil {
				return err
			}
			if sr.ID() == 0 {
				return sr.Send(p, 1, 5, 8, "sub")
			}
			msg, err := sr.Recv(p, 0, 5)
			if err != nil {
				return err
			}
			if msg.Payload.(string) != "sub" {
				t.Errorf("sub payload = %v", msg.Payload)
			}
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
	if _, err := NewComm(m, m.Nodes, 32, 16); err == nil {
		t.Fatal("32 ranks at 16 per node on 1 node must fail")
	}
	c, err := NewComm(m, m.Nodes, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rank(4); err == nil {
		t.Fatal("rank 4 of 4 must fail")
	}
	if _, err := c.Sub([]int{0, 9}); err == nil {
		t.Fatal("sub with bad rank must fail")
	}
}

func TestIsendOverlapsTransfers(t *testing.T) {
	// Two non-blocking sends to different peers overlap on the wire.
	e, _, spawn := newWorld(t, 3, 1)
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

func TestScatterAndReduce(t *testing.T) {
	const n = 4
	e, _, spawn := newWorld(t, n, 2)
	spawn(func(r *Rank, p *sim.Proc) error {
		var parts []any
		if r.ID() == 1 {
			for i := 0; i < n; i++ {
				parts = append(parts, i*11)
			}
		}
		got, err := r.Scatter(p, 1, 8, parts)
		if err != nil {
			return err
		}
		if got.(int) != r.ID()*11 {
			t.Errorf("rank %d scatter = %v, want %d", r.ID(), got, r.ID()*11)
		}
		sum, err := r.ReduceSum(p, 0, []float64{float64(r.ID() + 1)})
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if math.Abs(sum[0]-10) > 1e-12 {
				t.Errorf("reduce = %v, want 10", sum)
			}
		} else if sum != nil {
			t.Errorf("rank %d got non-nil reduce result", r.ID())
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveTrafficAttribution(t *testing.T) {
	e, c, spawn := newWorld(t, 4, 2)
	reg := metrics.NewRegistry(e.Now)
	c.Machine().Metrics = reg
	spawn(func(r *Rank, p *sim.Proc) error {
		if _, err := r.Bcast(p, 0, 1024, nil); err != nil {
			return err
		}
		if _, err := r.AllreduceSum(p, []float64{1}); err != nil {
			return err
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mpi/bcast/calls"]; got != 4 {
		t.Errorf("mpi/bcast/calls = %v, want 4", got)
	}
	if snap.Counters["mpi/bcast/msgs"] == 0 || snap.Counters["mpi/bcast/bytes"] == 0 {
		t.Errorf("bcast traffic not recorded: %v", snap.Counters)
	}
	if got := snap.Counters["mpi/allreduce/calls"]; got != 4 {
		t.Errorf("mpi/allreduce/calls = %v, want 4", got)
	}
	if snap.Counters["mpi/allreduce/msgs"] == 0 {
		t.Errorf("allreduce traffic not recorded: %v", snap.Counters)
	}
	// Allreduce runs over an inner gather and bcast; its traffic must keep
	// the outermost attribution.
	if got := snap.Counters["mpi/gather/calls"]; got != 0 {
		t.Errorf("inner gather attributed separately: calls = %v", got)
	}
	if got := snap.Counters["mpi/p2p/msgs"]; got != 0 {
		t.Errorf("collective traffic leaked to p2p: %v msgs", got)
	}
}
