package dimes

import (
	"errors"
	"strconv"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/synthetic"
)

func newTitan(t *testing.T, nodes int) (*sim.Engine, *hpc.Machine) {
	t.Helper()
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return e, m
}

func box(t *testing.T, lo, hi []uint64) ndarray.Box {
	t.Helper()
	b, err := ndarray.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	e, m := newTitan(t, 8)
	sys, err := Deploy(m, Config{Writers: 2}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0}, []uint64{200})
	whole := make([]float64, 200)
	for i := range whole {
		whole[i] = float64(i) * 1.5
	}
	wholeBlk, err := ndarray.NewDenseBlock(global, whole)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		i := i
		w, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 800)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			slab := box(t, []uint64{uint64(i * 100)}, []uint64{uint64(i*100 + 100)})
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
	r, err := sys.NewClient(m.Nodes[5], "analytics", "r", 800)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("reader", func(p *sim.Proc) error {
		want := box(t, []uint64{50}, []uint64{150})
		got, err := r.Get(p, "T", 1, want)
		if err != nil {
			return err
		}
		for i := range got.Data {
			if got.Data[i] != float64(50+i)*1.5 {
				t.Errorf("elem %d = %v", i, got.Data[i])
				break
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutPinsRDMAMemory(t *testing.T) {
	e, m := newTitan(t, 3)
	sys, err := Deploy(m, Config{Writers: 1}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewClient(m.Nodes[2], "sim", "w", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0}, []uint64{1 << 20}) // 8 MB
	e.Spawn("writer", func(p *sim.Proc) error {
		if err := w.Put(p, "T", 1, ndarray.NewSyntheticBlock(global)); err != nil {
			return err
		}
		if got := w.RDMADomain().MemUsed(); got != 8<<20 {
			t.Errorf("RDMA pinned = %d, want %d", got, 8<<20)
		}
		// Putting version 2 with max_versions=1 evicts and unpins v1.
		if err := w.Put(p, "T", 2, ndarray.NewSyntheticBlock(global)); err != nil {
			return err
		}
		if got := w.RDMADomain().MemUsed(); got != 8<<20 {
			t.Errorf("RDMA pinned after eviction = %d, want %d", got, 8<<20)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := w.RDMADomain().MemUsed(); got != 0 {
		t.Fatalf("RDMA pinned after close = %d", got)
	}
}

func TestPinnedPoolExhaustsProcessDomain(t *testing.T) {
	// One writer retaining many 128 MB versions exhausts its process's
	// 1,843 MB registered-memory domain (Figure 3's out-of-RDMA class).
	e, m := newTitan(t, 3)
	sys, err := Deploy(m, Config{Writers: 1, RDMABufBytes: 4 << 30, MaxVersions: 32}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewClient(m.Nodes[2], "sim", "w", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	failedAt := 0
	e.Spawn("writer", func(p *sim.Proc) error {
		blk := ndarray.NewSyntheticBlock(box(t, []uint64{0}, []uint64{16 << 20})) // 128 MB
		for v := 1; v <= 20; v++ {
			err := w.Put(p, "T", v, blk)
			if errors.Is(err, rdma.ErrOutOfMemory) {
				failedAt = v
				return nil
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 14 x 128 MB = 1,792 MB fits; the 15th does not.
	if failedAt != 15 {
		t.Fatalf("failed at version %d, want 15", failedAt)
	}
}

func TestBufferPoolLimit(t *testing.T) {
	e, m := newTitan(t, 3)
	sys, err := Deploy(m, Config{Writers: 1, RDMABufBytes: 10 << 20, MaxVersions: 4}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewClient(m.Nodes[2], "sim", "w", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("writer", func(p *sim.Proc) error {
		blk := ndarray.NewSyntheticBlock(box(t, []uint64{0}, []uint64{1 << 20})) // 8 MB
		if err := w.Put(p, "T", 1, blk); err != nil {
			return err
		}
		err := w.Put(p, "T", 2, blk)
		if !errors.Is(err, ErrBufferFull) {
			t.Errorf("second put error = %v, want ErrBufferFull", err)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaServersStaySmall(t *testing.T) {
	e, m := newTitan(t, 8)
	sys, err := Deploy(m, Config{Writers: 4}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		i := i
		w, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			blk := ndarray.NewSyntheticBlock(box(t, []uint64{uint64(i) << 23}, []uint64{uint64(i+1) << 23}))
			return w.Put(p, "T", 1, blk)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each server: 150 MB base + at most a few KB of metadata (~154 MB in
	// the paper's Figure 6).
	peak := m.Mem.MaxPeakMatching("dimes-server")
	if peak < MetaServerBaseBytes || peak > MetaServerBaseBytes+(10<<10) {
		t.Fatalf("meta server peak = %d, want ~%d", peak, MetaServerBaseBytes)
	}
}

func TestDeployValidation(t *testing.T) {
	_, m := newTitan(t, 1)
	if _, err := Deploy(m, Config{Writers: 0}, m.Nodes); err == nil {
		t.Fatal("zero writers accepted")
	}
	if _, err := Deploy(m, Config{Writers: 1, MetaServers: 8}, m.Nodes); err == nil {
		t.Fatal("8 servers on 1 node accepted")
	}
}

// TestOwnerSetsDropWithEvictedVersions couples 20 steps at MaxVersions 1,
// writers throttled on the readers as the workflow does: once every
// writer has evicted a version its owner set is gone, so the registry
// stays bounded by the retention window instead of growing per step.
func TestOwnerSetsDropWithEvictedVersions(t *testing.T) {
	const writers, readers, steps = 4, 2, 20
	e, m := newTitan(t, 2+writers+readers)
	cfg := Config{Writers: writers, MaxVersions: 1}
	sys, err := Deploy(m, cfg, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	readDone := staging.NewGate(e, readers)
	for i := 0; i < writers; i++ {
		i := i
		w, err := sys.NewClient(m.Nodes[2+i], "sim", "w"+strconv.Itoa(i), 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		blk := ndarray.NewSyntheticBlock(box(t, []uint64{uint64(i) * 1024}, []uint64{uint64(i+1) * 1024}))
		e.Spawn("writer", func(p *sim.Proc) error {
			for s := 0; s < steps; s++ {
				if s > 0 {
					if err := readDone.WaitReady(p, staging.Key{Var: "T", Version: s - 1}); err != nil {
						return err
					}
				}
				if err := w.Put(p, "T", s, blk); err != nil {
					return err
				}
				w.Commit("T", s)
			}
			return nil
		})
	}
	for r := 0; r < readers; r++ {
		r := r
		rd, err := sys.NewClient(m.Nodes[2+writers+r], "analytics", "r"+strconv.Itoa(r), 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		want := box(t, []uint64{uint64(r) * 2048}, []uint64{uint64(r+1) * 2048})
		e.Spawn("reader", func(p *sim.Proc) error {
			for s := 0; s < steps; s++ {
				if _, err := rd.Get(p, "T", s, want); err != nil {
					return err
				}
				readDone.Commit(staging.Key{Var: "T", Version: s})
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.owners); got > cfg.MaxVersions+1 {
		t.Fatalf("%d versions registered after %d steps, want at most %d", got, steps, cfg.MaxVersions+1)
	}
}

// TestEvictedVersionsFailWithNotFound checks both ends of an owner
// set's life: while one writer still holds a version, a Get reaching a
// writer that evicted it fails through that writer's store; once none
// holds it — after eviction or Close — the set is gone and a Get fails
// before touching any writer. Both failures wrap staging.ErrNotFound.
func TestEvictedVersionsFailWithNotFound(t *testing.T) {
	e, m := newTitan(t, 5)
	sys, err := Deploy(m, Config{Writers: 2}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	var ws []*Client
	for i := 0; i < 2; i++ {
		w, err := sys.NewClient(m.Nodes[2+i], "sim", "w"+strconv.Itoa(i), 800)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	r, err := sys.NewClient(m.Nodes[4], "analytics", "r", 1600)
	if err != nil {
		t.Fatal(err)
	}
	slab := func(i int) ndarray.Block {
		return ndarray.NewSyntheticBlock(box(t, []uint64{uint64(i) * 100}, []uint64{uint64(i+1) * 100}))
	}
	whole := box(t, []uint64{0}, []uint64{200})
	v1 := staging.Key{Var: "T", Version: 1}
	e.Spawn("driver", func(p *sim.Proc) error {
		for i, w := range ws {
			if err := w.Put(p, "T", 1, slab(i)); err != nil {
				return err
			}
			w.Commit("T", 1)
		}
		if _, err := r.Get(p, "T", 1, whole); err != nil {
			return err
		}
		// Writer 0 moves on to v2 (evicting v1); writer 1 still holds v1.
		if err := ws[0].Put(p, "T", 2, slab(0)); err != nil {
			return err
		}
		if sys.owners[v1] == nil {
			t.Error("v1 owner set dropped while writer 1 still holds it")
		}
		if _, err := r.Get(p, "T", 1, whole); !errors.Is(err, staging.ErrNotFound) {
			t.Errorf("Get of partly evicted v1 = %v, want ErrNotFound", err)
		}
		ws[1].Close()
		if sys.owners[v1] != nil {
			t.Error("v1 owner set kept after its last holder closed")
		}
		if _, err := r.Get(p, "T", 1, whole); !errors.Is(err, staging.ErrNotFound) {
			t.Errorf("Get of dropped v1 = %v, want ErrNotFound", err)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.owners) != 1 {
		t.Fatalf("%d versions registered, want only v2", len(sys.owners))
	}
}

// TestGetTestsFewOwnersAtScale is the host-cost guard for Get at the
// dimes-10k mismatch layout (6810 writers, 3414 readers): a linear owner
// scan tests 6810 boxes per Get; the owner index may test at most 4.
// The count is deterministic, so the guard needs no wall clock.
func TestGetTestsFewOwnersAtScale(t *testing.T) {
	const writers, readers = 6810, 3414
	set := &ownerSet{}
	for i := 0; i < writers; i++ {
		b, err := synthetic.WriterBox(synthetic.LayoutMismatch, writers, i)
		if err != nil {
			t.Fatal(err)
		}
		set.add(b, nil)
	}
	var hits []int32
	for r := 0; r < readers; r++ {
		b, err := synthetic.ReaderBox(synthetic.LayoutMismatch, writers, readers, r)
		if err != nil {
			t.Fatal(err)
		}
		before := set.index.Tested()
		hits = set.index.Overlapping(b, hits[:0])
		if tested := set.index.Tested() - before; tested > 4 {
			t.Fatalf("reader %d: %d owner boxes tested, want at most 4", r, tested)
		}
		if len(hits) == 0 || len(hits) > 2 {
			t.Fatalf("reader %d: %d owners, want 1 or 2", r, len(hits))
		}
	}
}

// BenchmarkDIMESGet measures one Get's host cost, metadata round-trip
// and transfers included, on the mismatch layout with 2 writers per
// reader box, at the ds-nto1 and dimes-10k writer counts.
func BenchmarkDIMESGet(b *testing.B) {
	for _, writers := range []int{339, 6810} {
		b.Run("writers="+strconv.Itoa(writers), func(b *testing.B) { benchGet(b, writers) })
	}
}

func benchGet(b *testing.B, writers int) {
	const perNode = 16
	readers := writers / 2
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 3+(writers+perNode-1)/perNode)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Deploy(m, Config{Writers: writers}, m.Nodes[:2])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		wb, err := synthetic.WriterBox(synthetic.LayoutMismatch, writers, i)
		if err != nil {
			b.Fatal(err)
		}
		blk := ndarray.NewSyntheticBlock(wb)
		w, err := sys.NewClient(m.Nodes[2+i/perNode], "sim", "w"+strconv.Itoa(i), blk.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := w.Put(p, "T", 0, blk); err != nil {
				return err
			}
			w.Commit("T", 0)
			return nil
		})
	}
	r, err := sys.NewClient(m.Nodes[len(m.Nodes)-1], "analytics", "r", 2*synthetic.PerWriterBytes())
	if err != nil {
		b.Fatal(err)
	}
	boxes := make([]ndarray.Box, readers)
	for k := range boxes {
		if boxes[k], err = synthetic.ReaderBox(synthetic.LayoutMismatch, writers, readers, k); err != nil {
			b.Fatal(err)
		}
	}
	e.Spawn("reader", func(p *sim.Proc) error {
		// The first Get builds the owner index; time the steady state.
		if _, err := r.Get(p, "T", 0, boxes[0]); err != nil {
			return err
		}
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			if _, err := r.Get(p, "T", 0, boxes[k%readers]); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
