package dataspaces

import (
	"errors"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/transport"
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

// deploySmall builds a 4-server space over a 2D variable with 4 writers.
func deploySmall(t *testing.T, m *hpc.Machine) *System {
	t.Helper()
	sys, err := Deploy(m, Config{Servers: 4, Writers: 4}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineDims("T", box(t, []uint64{0, 0}, []uint64{16, 64})); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPutGetRoundTrip(t *testing.T) {
	e, m := newTitan(t, 8)
	sys := deploySmall(t, m)
	global := box(t, []uint64{0, 0}, []uint64{16, 64})

	// 4 writers own row slabs; 2 readers own half-slabs each.
	writers := make([]*Client, 4)
	for i := range writers {
		c, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 8192)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = c
	}
	reader, err := sys.NewClient(m.Nodes[6], "analytics", "r", 8192)
	if err != nil {
		t.Fatal(err)
	}

	whole := make([]float64, global.NumElems())
	for i := range whole {
		whole[i] = float64(i)
	}
	wholeBlk, err := ndarray.NewDenseBlock(global, whole)
	if err != nil {
		t.Fatal(err)
	}

	for i, w := range writers {
		i, w := i, w
		e.Spawn("writer", func(p *sim.Proc) error {
			slab := box(t, []uint64{uint64(i * 4), 0}, []uint64{uint64(i*4 + 4), 64})
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
	e.Spawn("reader", func(p *sim.Proc) error {
		want := box(t, []uint64{3, 10}, []uint64{13, 50})
		got, err := reader.Get(p, "T", 1, want)
		if err != nil {
			return err
		}
		ref, err := wholeBlk.Sub(want)
		if err != nil {
			return err
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Errorf("elem %d = %v, want %v", i, got.Data[i], ref.Data[i])
				break
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGetBlocksUntilAllWritersCommit(t *testing.T) {
	e, m := newTitan(t, 8)
	sys, err := Deploy(m, Config{Servers: 2, Writers: 2}, m.Nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0}, []uint64{128})
	if err := sys.DefineDims("T", global); err != nil {
		t.Fatal(err)
	}
	var readerAt sim.Time
	for i := 0; i < 2; i++ {
		i := i
		c, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 512)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := p.Sleep(sim.Time(i+1) * 5); err != nil {
				return err
			}
			slab := box(t, []uint64{uint64(i * 64)}, []uint64{uint64(i*64 + 64)})
			if err := c.Put(p, "T", 1, ndarray.NewSyntheticBlock(slab)); err != nil {
				return err
			}
			c.Commit("T", 1)
			return nil
		})
	}
	r, err := sys.NewClient(m.Nodes[5], "analytics", "r", 512)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("reader", func(p *sim.Proc) error {
		_, err := r.Get(p, "T", 1, global)
		readerAt = p.Now()
		return err
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readerAt < 10 {
		t.Fatalf("reader finished at %v, before the slowest writer committed at 10", readerAt)
	}
}

func TestLongestDimDecompositionMismatch(t *testing.T) {
	// LAMMPS-shaped variable: 5 x 4 x 512000, scaled along dim 1 by the
	// writers. StagingRegions split dim 2, so EVERY writer intersects
	// EVERY region — the Figure 8a N-to-1 layout.
	_, m := newTitan(t, 4)
	sys, err := Deploy(m, Config{Servers: 4, Writers: 4}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0, 0, 0}, []uint64{5, 4, 512000})
	if err := sys.DefineDims("atoms", global); err != nil {
		t.Fatal(err)
	}
	regions, err := sys.Regions("atoms")
	if err != nil {
		t.Fatal(err)
	}
	writerBox := box(t, []uint64{0, 0, 0}, []uint64{5, 1, 512000})
	hits := 0
	for _, r := range regions {
		if _, ok := writerBox.Intersect(r); ok {
			hits++
		}
	}
	if hits != len(regions) {
		t.Fatalf("writer intersects %d of %d regions; the mismatch should make it all",
			hits, len(regions))
	}
}

func TestSFCIndexMemoryCharged(t *testing.T) {
	// The index pads every dimension to the longest extent's strictly
	// greater power of two, 2^k > longest.
	cases := []struct {
		hi     []uint64
		padded float64
	}{
		{[]uint64{1}, 2},
		{[]uint64{3}, 4},
		{[]uint64{4}, 8},
		{[]uint64{5}, 8},
		{[]uint64{131071}, 131072},
		{[]uint64{131073}, 262144},
		// Fig 6: 64 procs of 4096 x 2048 give 4096 x 131072, padded to
		// 262144^2 cells (~3.4 GB per server of 4); at 4096 per proc the
		// longest extent is 64*4096 = 2^18, padded to 524288.
		{[]uint64{4096, 131072}, 262144},
		{[]uint64{4096, 64 * 4096}, 524288},
	}
	for _, tc := range cases {
		_, m := newTitan(t, 2)
		sys, err := Deploy(m, Config{Servers: 4, Writers: 1, Hash: HashSFC}, m.Nodes[:2])
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.DefineDims("u", box(t, make([]uint64, len(tc.hi)), tc.hi)); err != nil {
			t.Fatalf("%v: %v", tc.hi, err)
		}
		cells := 1.0
		for range tc.hi {
			cells *= tc.padded
		}
		if got, want := sys.IndexBytes(0), int64(cells*SFCIndexBytesPerCell/4); got != want {
			t.Errorf("%v: index bytes = %d, want %d", tc.hi, got, want)
		}
	}
}

func TestSFCIndexOOMAtLargeProblem(t *testing.T) {
	// 4096 x 262144 pads to 524288^2 cells -> ~13.7 GB/server with 4
	// servers at 2/node: 2 servers/node plus staging exceed a 32 GB node
	// when problem size doubles again (Figure 6's out-of-memory edge).
	_, m := newTitan(t, 1)
	sys, err := Deploy(m, Config{Servers: 2, Writers: 1, Hash: HashSFC}, m.Nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	err = sys.DefineDims("u", box(t, []uint64{0, 0}, []uint64{4096, 524288}))
	if !errors.Is(err, hpc.ErrOutOfNodeMemory) {
		t.Fatalf("error = %v, want ErrOutOfNodeMemory", err)
	}
}

func TestServerMemoryIncludesBufferFactor(t *testing.T) {
	e, m := newTitan(t, 3)
	sys, err := Deploy(m, Config{Servers: 1, Writers: 1}, m.Nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0}, []uint64{1 << 20}) // 8 MB
	if err := sys.DefineDims("T", global); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(m.Nodes[2], "sim", "w", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("writer", func(p *sim.Proc) error {
		return c.Put(p, "T", 1, ndarray.NewSyntheticBlock(global))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	comp := m.Mem.Component("dataspaces-server-0")
	staged := comp.PeakOf("staging")
	want := int64(float64(8<<20) * (1 + BufferFactor))
	if staged != want {
		t.Fatalf("staging bytes = %d, want %d (raw + %.2fx buffering)", staged, want, BufferFactor)
	}
}

func TestSocketModeConsumesDescriptors(t *testing.T) {
	e, m := newTitan(t, 3)
	sys, err := Deploy(m, Config{Servers: 1, Writers: 1, Mode: transport.ModeSocket}, m.Nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0}, []uint64{1024})
	if err := sys.DefineDims("T", global); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(m.Nodes[2], "sim", "w", 8192)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("writer", func(p *sim.Proc) error {
		return c.Put(p, "T", 1, ndarray.NewSyntheticBlock(global))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Nodes[0].Socks.Used(); got != 1 {
		t.Fatalf("server node descriptors = %d, want 1", got)
	}
}

func TestShutdownFreesServers(t *testing.T) {
	_, m := newTitan(t, 2)
	sys := deploySmall(t, m)
	sys.Shutdown()
	for _, n := range m.Nodes[:2] {
		if n.Mem.Used() != 0 {
			t.Fatalf("node %s holds %d bytes after shutdown", n.Name(), n.Mem.Used())
		}
	}
}

func TestDeployValidation(t *testing.T) {
	_, m := newTitan(t, 1)
	if _, err := Deploy(m, Config{Servers: 0, Writers: 1}, m.Nodes); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := Deploy(m, Config{Servers: 8, Writers: 1}, m.Nodes); err == nil {
		t.Fatal("8 servers on 1 node (2 per node) accepted")
	}
	sys, err := Deploy(m, Config{Servers: 2, Writers: 1}, m.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Regions("nope"); !errors.Is(err, ErrUndefinedVar) {
		t.Fatalf("undefined var error = %v", err)
	}
}
