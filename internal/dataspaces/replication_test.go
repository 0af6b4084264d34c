package dataspaces

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// deployReplicated builds a k=2 replicated space: 4 servers on 2 nodes,
// so every region has replicas on both server nodes.
func deployReplicated(t *testing.T, m *hpc.Machine, servers, k int) *System {
	t.Helper()
	nodes := (servers + 1) / 2
	sys, err := Deploy(m, Config{Servers: servers, Writers: 2, Replication: k}, m.Nodes[:nodes])
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineDims("T", box(t, []uint64{0}, []uint64{4096})); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestReplicatedPutRequiresDistinctNodes(t *testing.T) {
	_, m := newTitan(t, 4)
	// 2 servers share one node: no second node to hold a replica.
	_, err := Deploy(m, Config{Servers: 2, Writers: 1, Replication: 2}, m.Nodes[:1])
	if err == nil {
		t.Fatal("Deploy accepted replication across a single server node")
	}
}

func TestReplicatedGetFailsOverToSurvivingReplica(t *testing.T) {
	e, m := newTitan(t, 8)
	sys := deployReplicated(t, m, 4, 2)
	global := box(t, []uint64{0}, []uint64{4096})

	whole := make([]float64, global.NumElems())
	for i := range whole {
		whole[i] = float64(i)
	}
	wholeBlk, err := ndarray.NewDenseBlock(global, whole)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		i := i
		w, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			slab := box(t, []uint64{uint64(i * 2048)}, []uint64{uint64(i*2048 + 2048)})
			sub, err := wholeBlk.Sub(slab)
			if err != nil {
				return err
			}
			if err := w.Put(p, "T", 1, sub); err != nil {
				return err
			}
			w.Commit("T", 1)
			return nil
		})
	}
	// The first server node dies after the puts land; the reader arrives
	// later and must be served from the replicas on the second node.
	e.At(5, func() { m.Nodes[0].FailAt(5) })
	r, err := sys.NewClient(m.Nodes[6], "analytics", "r", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var got ndarray.Block
	e.Spawn("reader", func(p *sim.Proc) error {
		if err := p.Sleep(8); err != nil {
			return err
		}
		got, err = r.Get(p, "T", 1, global)
		return err
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		if got.Data[i] != whole[i] {
			t.Fatalf("elem %d = %v after failover, want %v", i, got.Data[i], whole[i])
		}
	}
}

func TestDetectorTriggersReReplication(t *testing.T) {
	e, m := newTitan(t, 8)
	reg := metrics.NewRegistry(e.Now)
	m.Metrics = reg
	// 6 servers on 3 nodes: when one node dies, a replacement replica can
	// be placed on the node holding neither survivor nor lost copy.
	sys := deployReplicated(t, m, 6, 2)
	w, err := sys.NewClient(m.Nodes[4], "sim", "w", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("writer", func(p *sim.Proc) error {
		if err := w.Put(p, "T", 1, ndarray.NewSyntheticBlock(box(t, []uint64{0}, []uint64{4096}))); err != nil {
			return err
		}
		w.Commit("T", 1)
		return nil
	})
	e.At(5, func() {
		m.Nodes[0].FailAt(5)
		sys.Detector().ObserveFailure(m.Nodes[0])
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recovered, objects, bytes, recTime := sys.RecoveryStats()
	if !recovered {
		t.Fatal("detector-triggered recovery did not complete")
	}
	if objects == 0 || bytes == 0 {
		t.Fatalf("re-replicated %d objects / %d bytes, want > 0", objects, bytes)
	}
	// Detection latency: the detector declares death Misses heartbeat
	// intervals after the first missed beat, never instantly.
	interval, misses := sys.Detector().Config().Interval, sys.Detector().Config().Misses
	if recTime < interval*sim.Time(misses) {
		t.Fatalf("recovery time %v shorter than detection latency %v", recTime, interval*sim.Time(misses))
	}
	if got := reg.Counter("resilience/detected").Value(); got != 1 {
		t.Fatalf("resilience/detected = %v, want 1", got)
	}
	if got := reg.Counter("resilience/rereplication/bytes").Value(); got != float64(bytes) {
		t.Fatalf("rereplication bytes counter = %v, want %d", got, bytes)
	}
}

// TestSecondCrashDuringReReplication is the lease-edge companion: the
// re-replication copy triggered by the first crash is still in flight
// when every surviving server node dies too. Recovery must absorb the
// mid-copy failure (best-effort, counted) instead of aborting the run.
func TestSecondCrashDuringReReplication(t *testing.T) {
	e, m := newTitan(t, 8)
	reg := metrics.NewRegistry(e.Now)
	m.Metrics = reg
	sys, err := Deploy(m, Config{Servers: 6, Writers: 2, Replication: 2}, m.Nodes[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Blocks big enough that each re-replication transfer spans real
	// virtual time — room to land a second crash mid-copy. Two writers
	// cover the same box, so every region re-replicates two objects in
	// sequence and the second send can start after the crash.
	global := box(t, []uint64{0}, []uint64{1 << 20})
	if err := sys.DefineDims("T", global); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w, err := sys.NewClient(m.Nodes[4+i], "sim", "w", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := w.Put(p, "T", 1, ndarray.NewSyntheticBlock(global)); err != nil {
				return err
			}
			w.Commit("T", 1)
			return nil
		})
	}
	// First crash at t=5; with the default 0.5 s / 3-miss detector the
	// recovery copy starts at t=6.5. Kill the remaining server nodes
	// while the first region's first transfer is still in flight.
	e.At(5, func() {
		m.Nodes[0].FailAt(5)
		sys.Detector().ObserveFailure(m.Nodes[0])
	})
	e.At(6.5001, func() {
		m.Nodes[1].FailAt(6.5001)
		m.Nodes[2].FailAt(6.5001)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("second crash mid-recovery aborted the run: %v", err)
	}
	recovered, _, _, _ := sys.RecoveryStats()
	if recovered {
		t.Fatal("recovery reported complete despite losing every copy source mid-flight")
	}
	if got := reg.Counter("resilience/recovery_errors").Value(); got != 1 {
		t.Fatalf("resilience/recovery_errors = %v, want 1", got)
	}
}
