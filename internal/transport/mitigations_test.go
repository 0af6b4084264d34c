package transport

import (
	"errors"
	"math"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
)

func TestEagerPathSkipsRegistration(t *testing.T) {
	e, m := newTitan(t, 2)
	src := NewEndpoint(m, m.Nodes[0], "job", "w", ModeRDMA)
	dst := NewEndpoint(m, m.Nodes[1], "job", "s", ModeRDMA)
	e.Spawn("p", func(p *sim.Proc) error {
		// A small message (below the 4 KiB uGNI SMSG eager size) takes the
		// bounce path like every message up to BounceThreshold: no handles
		// or memory are touched on either side.
		if err := src.Send(p, dst, 4<<10-1, SendOpts{}); err != nil {
			return err
		}
		if src.Domain().HandlesUsed() != 0 || dst.Domain().HandlesUsed() != 0 {
			t.Error("eager send used handles")
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBounceVsZeroCopyBoundary(t *testing.T) {
	// At and below BounceThreshold no registration happens; above it the
	// full buffers register on both sides (the Figure 3 failure path).
	e, m := newTitan(t, 2)
	src := NewEndpoint(m, m.Nodes[0], "job", "w", ModeRDMA)
	dst := NewEndpoint(m, m.Nodes[1], "job", "s", ModeRDMA)
	e.Spawn("p", func(p *sim.Proc) error {
		if err := src.Send(p, dst, BounceThreshold, SendOpts{}); err != nil {
			return err
		}
		if got := src.Domain().HandlesUsed(); got != 0 {
			t.Errorf("bounce path registered %d handles", got)
		}
		return src.Send(p, dst, BounceThreshold+1, SendOpts{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The zero-copy send's transient registration shows in the peak.
	if src.Domain().MemUsed() != 0 {
		t.Fatal("registration leaked")
	}
}

func TestWaitRetryBlocksInsteadOfFailing(t *testing.T) {
	// Two writers each sending 1.2 GB to one server: hard-fail mode
	// crashes the second; wait-retry mode queues it.
	run := func(retry bool) (failures int, last sim.Time) {
		e, m := newTitan(t, 3)
		dst := NewEndpoint(m, m.Nodes[2], "job", "server", ModeRDMA)
		for i := 0; i < 2; i++ {
			src := NewEndpoint(m, m.Nodes[i], "job", "w", ModeRDMA)
			if retry {
				src.WithWaitRetry()
			}
			e.Spawn("w", func(p *sim.Proc) error {
				err := src.Send(p, dst, 1200<<20, SendOpts{})
				if errors.Is(err, rdma.ErrOutOfMemory) {
					failures++
					return nil
				}
				if err == nil && p.Now() > last {
					last = p.Now()
				}
				return err
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return failures, last
	}
	failures, _ := run(false)
	if failures != 1 {
		t.Fatalf("hard-fail mode: %d failures, want 1", failures)
	}
	failures, last := run(true)
	if failures != 0 {
		t.Fatalf("wait-retry mode: %d failures, want 0", failures)
	}
	// The second transfer serialized after the first: > 2x solo time.
	solo := 1200e6 * (1 << 0) / 5.5e9 * (1200.0 / 1200.0) // ~0.218 s
	if last < 2*solo*0.9 {
		t.Fatalf("wait-retry finished at %v, want ~2x solo %v", last, solo)
	}
}

func TestSocketPoolMultiplexes(t *testing.T) {
	e, m := newTitan(t, 2)
	client := NewEndpoint(m, m.Nodes[0], "job", "c", ModeSocket)
	client.WithSocketPool(2)
	servers := make([]*Endpoint, 4)
	for i := range servers {
		servers[i] = NewEndpoint(m, m.Nodes[1], "job", "s", ModeSocket)
	}
	e.Spawn("p", func(p *sim.Proc) error {
		for _, s := range servers {
			if err := client.Send(p, s, 1000, SendOpts{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the pool size was consumed on each node.
	if got := m.Nodes[0].Socks.Used(); got != 2 {
		t.Fatalf("client node descriptors = %d, want 2", got)
	}
	if got := m.Nodes[1].Socks.Used(); got != 2 {
		t.Fatalf("server node descriptors = %d, want 2", got)
	}
}

func TestShardedDRCAbsorbsStorm(t *testing.T) {
	e := sim.NewEngine()
	single, err := rdma.NewDRC(e, rdma.DRCConfig{RequestsPerSec: 100, MaxPending: 5})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := rdma.NewDRC(e, rdma.DRCConfig{RequestsPerSec: 100, MaxPending: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var singleFail, shardFail int
	for i := 0; i < 16; i++ {
		i := i
		e.Spawn("req", func(p *sim.Proc) error {
			node := "node-" + string(rune('a'+i))
			if _, err := single.Acquire(p, "job", node); errors.Is(err, rdma.ErrDRCOverload) {
				singleFail++
			}
			if _, err := sharded.Acquire(p, "job", node); errors.Is(err, rdma.ErrDRCOverload) {
				shardFail++
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if singleFail == 0 {
		t.Fatal("single server should overload at 16 concurrent requests")
	}
	if shardFail != 0 {
		t.Fatalf("sharded service failed %d requests, want 0", shardFail)
	}
}

func TestIntraNodeBeatsCrossNode(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Cori(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(m, m.Nodes[0], "j", "a", ModeRDMA)
	bLocal := NewEndpoint(m, m.Nodes[0], "j", "b", ModeRDMA)
	bRemote := NewEndpoint(m, m.Nodes[1], "j", "c", ModeRDMA)
	var localT, remoteT sim.Time
	e.Spawn("p", func(p *sim.Proc) error {
		t0 := p.Now()
		if err := a.Send(p, bLocal, 1<<30, SendOpts{}); err != nil {
			return err
		}
		localT = p.Now() - t0
		t0 = p.Now()
		if err := a.Send(p, bRemote, 1<<30, SendOpts{}); err != nil {
			return err
		}
		remoteT = p.Now() - t0
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Cori: 90 GB/s bus vs 15.6 GB/s NIC.
	ratio := remoteT / localT
	if math.Abs(ratio-90.0/15.6) > 0.5 {
		t.Fatalf("remote/local = %v, want ~%.2f", ratio, 90.0/15.6)
	}
}

func TestModeAndProtocolAccessors(t *testing.T) {
	if ModeRDMA.String() != "rdma" || ModeSocket.String() != "socket" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should render")
	}
	e, m := newTitan(t, 1)
	_ = e
	ep := NewEndpoint(m, m.Nodes[0], "j", "x", ModeRDMA)
	if ep.Protocol() != rdma.ProtoUGNI {
		t.Fatalf("default protocol = %v, want uGNI", ep.Protocol())
	}
	ep.UseProtocol(rdma.ProtoNNTI)
	if ep.Protocol() != rdma.ProtoNNTI {
		t.Fatal("UseProtocol did not stick")
	}
	if ep.Node() != m.Nodes[0] || ep.Name() != "x" || ep.Mode() != ModeRDMA {
		t.Fatal("accessors wrong")
	}
}

func TestCloseIdempotentAndAttachRelease(t *testing.T) {
	e, m := newTitan(t, 2)
	_ = e
	a := NewEndpoint(m, m.Nodes[0], "j", "a", ModeRDMA)
	b := NewEndpoint(m, m.Nodes[1], "j", "b", ModeRDMA)
	if err := a.AttachPeers(b); err != nil {
		t.Fatal(err)
	}
	if a.Domain().PeerMailboxes() != 1 || b.Domain().PeerMailboxes() != 1 {
		t.Fatal("mailboxes not registered on both sides")
	}
	a.Close()
	a.Close() // idempotent
	if a.Domain().PeerMailboxes() != 0 {
		t.Fatal("mailboxes not released on close")
	}
}

func TestNodeFailureBlocksSends(t *testing.T) {
	e, m := newTitan(t, 2)
	a := NewEndpoint(m, m.Nodes[0], "j", "a", ModeRDMA)
	b := NewEndpoint(m, m.Nodes[1], "j", "b", ModeRDMA)
	m.Nodes[1].Fail()
	e.Spawn("p", func(p *sim.Proc) error {
		err := a.Send(p, b, 100, SendOpts{})
		if !errors.Is(err, hpc.ErrNodeFailed) {
			t.Errorf("error = %v, want ErrNodeFailed", err)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
