package dataspaces

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// TestNToOneServerSequence verifies the Finding 3 mechanism end to end:
// under the mismatched layout, all writers occupy one server at a time
// and march through the servers in the same order, so the total put time
// equals the fully serialized sum; under the matched layout the servers
// work in parallel.
func TestNToOneServerSequence(t *testing.T) {
	run := func(global, writerBox func(i int) ndarray.Box, writers int) sim.Time {
		e := sim.NewEngine()
		m, err := hpc.New(e, hpc.Titan(), 2+writers)
		if err != nil {
			t.Fatal(err)
		}
		// 4 servers on 2 nodes (2 per node, the paper's packing).
		sys, err := Deploy(m, Config{Servers: 4, Writers: writers}, m.Nodes[:2])
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.DefineDims("v", global(0)); err != nil {
			t.Fatal(err)
		}
		var latest sim.Time
		for i := 0; i < writers; i++ {
			i := i
			c, err := sys.NewClient(m.Nodes[2+i], "sim", "w", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			e.Spawn("w", func(p *sim.Proc) error {
				if err := c.Put(p, "v", 1, ndarray.NewSyntheticBlock(writerBox(i))); err != nil {
					return err
				}
				if p.Now() > latest {
					latest = p.Now()
				}
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return latest
	}

	const writers = 8
	const elems = 1 << 20 // 8 MB per writer

	// Mismatch: writers scale dim 0, the long dimension is dim 1.
	mismatchGlobal := func(int) ndarray.Box {
		return ndarray.WholeArray([]uint64{writers, elems})
	}
	mismatchWriter := func(i int) ndarray.Box {
		b := mismatchGlobal(0)
		b.Lo[0], b.Hi[0] = uint64(i), uint64(i+1)
		return b
	}
	// Matched: writers scale the long dimension itself.
	matchedGlobal := func(int) ndarray.Box {
		return ndarray.WholeArray([]uint64{1, writers * elems})
	}
	matchedWriter := func(i int) ndarray.Box {
		b := matchedGlobal(0)
		b.Lo[1], b.Hi[1] = uint64(i)*elems, uint64(i+1)*elems
		return b
	}

	tMismatch := run(mismatchGlobal, mismatchWriter, writers)
	tMatched := run(matchedGlobal, matchedWriter, writers)

	// Mismatch: one server-NODE NIC active at a time (2 servers per node),
	// total = all bytes through half the node NICs serially -> 2x matched.
	ratio := tMismatch / tMatched
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("mismatch/matched put time = %.2f, want ~2 (2 server nodes)", ratio)
	}
}

// TestRegionWalkOrder checks the sequential region access the paper
// describes: sub-puts target servers strictly in region order.
func TestRegionWalkOrder(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(m, Config{Servers: 4, Writers: 1}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	global := ndarray.WholeArray([]uint64{2, 4096})
	if err := sys.DefineDims("v", global); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(m.Nodes[2], "sim", "w", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("w", func(p *sim.Proc) error {
		return c.Put(p, "v", 1, ndarray.NewSyntheticBlock(global))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each server received exactly its region's share, in order: the
	// store of server k holds the k-th quarter of the columns.
	regions, err := sys.Regions("v")
	if err != nil {
		t.Fatal(err)
	}
	for k, srv := range sys.Servers() {
		blocks, err := srv.Store.Query(staging.Key{Var: "v", Version: 1}, regions[k])
		if err != nil {
			t.Fatalf("server %d missing its region: %v", k, err)
		}
		var elems uint64
		for _, b := range blocks {
			elems += b.Box.NumElems()
		}
		if elems != regions[k].NumElems() {
			t.Fatalf("server %d holds %d elems, want %d", k, elems, regions[k].NumElems())
		}
	}
}
