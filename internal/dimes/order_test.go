package dimes

import (
	"slices"
	"strconv"
	"testing"

	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// orderCase is one writer decomposition: writer i owns boxes[i] and
// registers it delays[i] virtual seconds into the run, so registration
// order is a shuffle of the rank order.
type orderCase struct {
	name   string
	boxes  [][2][]uint64
	delays []float64
	reader [2][]uint64
	// sends is the writer ranks in the order their data reaches the
	// reader; finish the reader's completion time in virtual seconds
	// (shortest float formatting). Both were recorded from the linear
	// owner scan, and the owner index must reproduce them exactly.
	sends  []int
	finish string
}

// slab1D tiles [0, n*w) with n slabs of width w along one dimension.
func slab1D(n int, w uint64) [][2][]uint64 {
	var out [][2][]uint64
	for i := 0; i < n; i++ {
		out = append(out, [2][]uint64{{uint64(i) * w}, {uint64(i+1) * w}})
	}
	return out
}

// grid2D tiles a rows x cols grid of w x w tiles, row-major by rank.
func grid2D(rows, cols int, w uint64) [][2][]uint64 {
	var out [][2][]uint64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, [2][]uint64{
				{uint64(r) * w, uint64(c) * w},
				{uint64(r+1) * w, uint64(c+1) * w},
			})
		}
	}
	return out
}

// TestGetVisitsOwnersInRegistrationOrder pins the order in which a Get
// pulls from the writers holding its box, and the virtual time that
// order produces: owners are visited in registration order, whatever
// the spatial layout. The send order is read off the network: each
// writer has its own node, and the rate observer logs which writer's
// NIC is feeding the reader's NIC after the version is ready.
func TestGetVisitsOwnersInRegistrationOrder(t *testing.T) {
	cases := []orderCase{
		{
			name:   "1d-mismatch",
			boxes:  slab1D(6, 1<<17),
			delays: []float64{0.004, 0.001, 0.006, 0.002, 0.005, 0.003},
			reader: [2][]uint64{{1 << 16}, {4<<17 + 1<<15}},
			sends:  []int{1, 3, 0, 4, 2},
			finish: "0.006727077818181816",
		},
		{
			name:   "2d-mixed",
			boxes:  grid2D(3, 3, 512),
			delays: []float64{0.007, 0.003, 0.009, 0.001, 0.005, 0.002, 0.008, 0.004, 0.006},
			reader: [2][]uint64{{256, 100}, {1024, 1400}},
			sends:  []int{3, 5, 1, 4, 0, 2},
			finish: "0.010465857818181818",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sends, finish := runOrderCase(t, tc)
			if len(sends) < 3 {
				t.Fatalf("reader visited %d owners, want at least 3", len(sends))
			}
			if !slices.Equal(sends, tc.sends) || finish != tc.finish {
				t.Fatalf("sends %v finish %s, want %v finish %s", sends, finish, tc.sends, tc.finish)
			}
		})
	}
}

func runOrderCase(t *testing.T, tc orderCase) ([]int, string) {
	t.Helper()
	n := len(tc.boxes)
	e, m := newTitan(t, 3+n)
	sys, err := Deploy(m, Config{Writers: n}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	writerNode := func(i int) int { return 2 + i }
	for i := 0; i < n; i++ {
		i := i
		w, err := sys.NewClient(m.Nodes[writerNode(i)], "sim", "w"+strconv.Itoa(i), 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		b := box(t, tc.boxes[i][0], tc.boxes[i][1])
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := p.Sleep(tc.delays[i]); err != nil {
				return err
			}
			if err := w.Put(p, "T", 1, ndarray.NewSyntheticBlock(b)); err != nil {
				return err
			}
			w.Commit("T", 1)
			return nil
		})
	}
	readerNode := m.Nodes[2+n]
	r, err := sys.NewClient(readerNode, "analytics", "r", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	var sends []int
	m.Net.SetRateObserver(func(sim.Time) {
		if !sys.Gate().Ready(staging.Key{Var: "T", Version: 1}) || readerNode.In().CurrentRate() == 0 {
			return
		}
		for i := 0; i < n; i++ {
			if m.Nodes[writerNode(i)].Out().CurrentRate() == 0 {
				continue
			}
			if len(sends) == 0 || sends[len(sends)-1] != i {
				sends = append(sends, i)
			}
		}
	})
	var finish sim.Time
	e.Spawn("reader", func(p *sim.Proc) error {
		if _, err := r.Get(p, "T", 1, box(t, tc.reader[0], tc.reader[1])); err != nil {
			return err
		}
		finish = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return sends, strconv.FormatFloat(float64(finish), 'g', -1, 64)
}
