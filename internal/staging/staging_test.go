package staging

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

func newMachine(t *testing.T) (*sim.Engine, *hpc.Machine) {
	t.Helper()
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e, m
}

func box(t testing.TB, lo, hi []uint64) ndarray.Box {
	t.Helper()
	b, err := ndarray.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStorePutQuery(t *testing.T) {
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "server-0", "staging", 0, 0)
	b := box(t, []uint64{0}, []uint64{10})
	data := make([]float64, 10)
	for i := range data {
		data[i] = float64(i)
	}
	blk, err := ndarray.NewDenseBlock(b, data)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Var: "T", Version: 1}
	if err := s.Put(key, blk); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(key, box(t, []uint64{3}, []uint64{7}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Data[0] != 3 || got[0].Data[3] != 6 {
		t.Fatalf("query = %+v", got)
	}
	if _, err := s.Query(Key{Var: "T", Version: 9}, b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version error = %v", err)
	}
}

func TestStoreChargesOverhead(t *testing.T) {
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "server-0", "staging", 0, 0.75)
	b := box(t, []uint64{0}, []uint64{1000}) // 8000 bytes
	key := Key{Var: "T", Version: 1}
	if err := s.Put(key, ndarray.NewSyntheticBlock(b)); err != nil {
		t.Fatal(err)
	}
	want := int64(8000 + 6000)
	if got := s.BytesStored(key); got != want {
		t.Fatalf("BytesStored = %d, want %d", got, want)
	}
	if got := m.Mem.Component("server-0").Current(); got != want {
		t.Fatalf("tracked = %d, want %d", got, want)
	}
	s.DropVersion(key)
	if got := m.Mem.Component("server-0").Current(); got != 0 {
		t.Fatalf("after drop: tracked = %d", got)
	}
}

func TestStoreEvictsOldVersions(t *testing.T) {
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "server-0", "staging", 1, 0)
	b := box(t, []uint64{0}, []uint64{100})
	for v := 1; v <= 3; v++ {
		if err := s.Put(Key{Var: "T", Version: v}, ndarray.NewSyntheticBlock(b)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(Key{Var: "T", Version: 1}, b); !errors.Is(err, ErrNotFound) {
		t.Fatal("version 1 should have been evicted (max_versions=1)")
	}
	if _, err := s.Query(Key{Var: "T", Version: 3}, b); err != nil {
		t.Fatalf("latest version must remain: %v", err)
	}
	// Only one version's bytes remain charged.
	if got := m.Mem.Component("server-0").Current(); got != 800 {
		t.Fatalf("tracked = %d, want 800", got)
	}
}

func TestStoreOOM(t *testing.T) {
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "server-0", "staging", 0, 0)
	huge := box(t, []uint64{0}, []uint64{uint64(m.Spec().NodeMemBytes)})
	err := s.Put(Key{Var: "T", Version: 1}, ndarray.NewSyntheticBlock(huge))
	if !errors.Is(err, hpc.ErrOutOfNodeMemory) {
		t.Fatalf("error = %v, want ErrOutOfNodeMemory", err)
	}
}

func TestGateReleasesReadersAfterAllWriters(t *testing.T) {
	e, _ := newMachine(t)
	g := NewGate(e, 3)
	key := Key{Var: "T", Version: 1}
	var readerDone sim.Time
	e.Spawn("reader", func(p *sim.Proc) error {
		if err := g.WaitReady(p, key); err != nil {
			return err
		}
		readerDone = p.Now()
		return nil
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := p.Sleep(sim.Time(i + 1)); err != nil {
				return err
			}
			g.Commit(key)
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readerDone != 3 {
		t.Fatalf("reader released at %v, want 3 (last writer)", readerDone)
	}
	if !g.Ready(key) {
		t.Fatal("gate should report ready")
	}
}

func TestStoreCloseFreesAll(t *testing.T) {
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "server-0", "staging", 0, 0)
	b := box(t, []uint64{0}, []uint64{100})
	for v := 1; v <= 3; v++ {
		if err := s.Put(Key{Var: "T", Version: v}, ndarray.NewSyntheticBlock(b)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if got := m.Nodes[0].Mem.Used(); got != 0 {
		t.Fatalf("node memory %d after Close", got)
	}
}

// TestStoreQueryExact checks that a query returns exactly the parts of
// the overlapping blocks, in insertion order, whatever the layout.
func TestStoreQueryExact(t *testing.T) {
	cases := []struct {
		name  string
		boxes [][2][]uint64 // lo, hi per stored block, in insertion order
		query [2][]uint64
		want  [][2][]uint64 // lo, hi per returned sub-block
	}{
		{
			// Quadrants: the blocks differ in both dimensions.
			name: "two-dimension-quadrants",
			boxes: [][2][]uint64{
				{{0, 0}, {4, 4}}, {{4, 4}, {8, 8}}, {{0, 4}, {4, 8}}, {{4, 0}, {8, 4}},
			},
			query: [2][]uint64{{2, 2}, {6, 6}},
			want: [][2][]uint64{
				{{2, 2}, {4, 4}}, {{4, 4}, {6, 6}}, {{2, 4}, {4, 6}}, {{4, 2}, {6, 4}},
			},
		},
		{
			// Slabs of one dimension, inserted out of order.
			name: "one-dimension-out-of-order",
			boxes: [][2][]uint64{
				{{40}, {60}}, {{0}, {20}}, {{80}, {100}}, {{20}, {40}}, {{60}, {80}},
			},
			query: [2][]uint64{{30}, {70}},
			want:  [][2][]uint64{{{40}, {60}}, {{30}, {40}}, {{60}, {70}}},
		},
		{
			// An empty block inside the query overlaps nothing.
			name:  "empty-block",
			boxes: [][2][]uint64{{{5}, {5}}, {{0}, {10}}},
			query: [2][]uint64{{0}, {10}},
			want:  [][2][]uint64{{{0}, {10}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, m := newMachine(t)
			s := NewStore(m, m.Nodes[0], "srv", "staging", 0, 0)
			key := Key{Var: "T", Version: 1}
			for _, b := range tc.boxes {
				if err := s.Put(key, ndarray.NewSyntheticBlock(box(t, b[0], b[1]))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Query(key, box(t, tc.query[0], tc.query[1]))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("query returned %d blocks, want %d", len(got), len(tc.want))
			}
			for i, w := range tc.want {
				if want := box(t, w[0], w[1]); !got[i].Box.Equal(want) {
					t.Fatalf("block %d = %v, want %v", i, got[i].Box, want)
				}
			}
		})
	}
}

func TestPreEvictionBoundsPeak(t *testing.T) {
	// With max_versions=1, admitting version v+1 must evict v first: the
	// node-memory peak stays at one version.
	_, m := newMachine(t)
	s := NewStore(m, m.Nodes[0], "srv", "staging", 1, 0)
	b := box(t, []uint64{0}, []uint64{1000}) // 8 KB
	for v := 1; v <= 5; v++ {
		if err := s.Put(Key{Var: "T", Version: v}, ndarray.NewSyntheticBlock(b)); err != nil {
			t.Fatal(err)
		}
	}
	if peak := m.Mem.Component("srv").Peak(); peak != 8000 {
		t.Fatalf("peak = %d, want 8000 (one version)", peak)
	}
}

// Property: Store.Query over random tiling layouts returns exactly the
// same coverage as a brute-force scan of the inserted blocks.
func TestStoreQueryMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		m, err := hpc.New(e, hpc.Titan(), 1)
		if err != nil {
			return false
		}
		s := NewStore(m, m.Nodes[0], "srv", "staging", 0, 0)
		key := Key{Var: "T", Version: 1}
		// Random 2-D tiling: rows split into r slabs, columns into c slabs,
		// inserted in random order.
		rows := uint64(rng.Intn(20) + 4)
		cols := uint64(rng.Intn(20) + 4)
		rSplit := uint64(rng.Intn(3) + 1)
		cSplit := uint64(rng.Intn(3) + 1)
		var blocks []ndarray.Box
		for i := uint64(0); i < rSplit; i++ {
			for j := uint64(0); j < cSplit; j++ {
				lo := []uint64{i * rows / rSplit, j * cols / cSplit}
				hi := []uint64{(i + 1) * rows / rSplit, (j + 1) * cols / cSplit}
				b, err := ndarray.NewBox(lo, hi)
				if err != nil || b.Empty() {
					continue
				}
				blocks = append(blocks, b)
			}
		}
		rng.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
		for _, b := range blocks {
			if err := s.Put(key, ndarray.NewSyntheticBlock(b)); err != nil {
				return false
			}
		}
		// Random query box.
		qlo := []uint64{uint64(rng.Intn(int(rows))), uint64(rng.Intn(int(cols)))}
		qhi := []uint64{qlo[0] + uint64(rng.Intn(int(rows-qlo[0]))) + 1, qlo[1] + uint64(rng.Intn(int(cols-qlo[1]))) + 1}
		query, err := ndarray.NewBox(qlo, qhi)
		if err != nil {
			return false
		}
		got, err := s.Query(key, query)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return false
		}
		var covered uint64
		for _, blk := range got {
			covered += blk.Box.NumElems()
		}
		// Brute force over inserted blocks.
		var want uint64
		for _, b := range blocks {
			if ov, ok := b.Intersect(query); ok {
				want += ov.NumElems()
			}
		}
		return covered == want
	}
	cfg := &quick.Config{MaxCount: 120, Values: func(v []reflect.Value, r *rand.Rand) {
		v[0] = reflect.ValueOf(r.Int63())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
