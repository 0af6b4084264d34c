package ndarray

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustBox(t *testing.T, lo, hi []uint64) Box {
	t.Helper()
	b, err := NewBox(lo, hi)
	if err != nil {
		t.Fatalf("NewBox(%v,%v): %v", lo, hi, err)
	}
	return b
}

func TestBoxBasics(t *testing.T) {
	b := mustBox(t, []uint64{0, 2}, []uint64{4, 10})
	if got := b.NumElems(); got != 32 {
		t.Fatalf("NumElems = %d, want 32", got)
	}
	if got := b.Bytes(); got != 256 {
		t.Fatalf("Bytes = %d, want 256", got)
	}
	if b.Empty() {
		t.Fatal("box should not be empty")
	}
	if !b.Equal(b.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := mustBox(t, []uint64{0, 0}, []uint64{10, 10})
	b := mustBox(t, []uint64{5, 5}, []uint64{15, 15})
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := mustBox(t, []uint64{5, 5}, []uint64{10, 10})
	if !got.Equal(want) {
		t.Fatalf("Intersect = %s, want %s", got, want)
	}
	c := mustBox(t, []uint64{10, 0}, []uint64{20, 10})
	if _, ok := a.Intersect(c); ok {
		t.Fatal("adjacent boxes must not intersect")
	}
	// Staging tests every region against every put and get, most of them
	// disjoint: a miss must not allocate.
	if n := testing.AllocsPerRun(10, func() { a.Intersect(c) }); n != 0 {
		t.Fatalf("Intersect of disjoint boxes allocated %v times", n)
	}
	// A hit builds Lo and Hi in one array, each capped at its length, so
	// growing Lo cannot write into Hi.
	if n := testing.AllocsPerRun(10, func() { a.Intersect(b) }); n != 1 {
		t.Fatalf("Intersect of overlapping boxes allocated %v times, want 1", n)
	}
	_ = append(got.Lo, 99)
	if !got.Equal(want) {
		t.Fatalf("appending to Lo changed the box to %s", got)
	}
}

func TestCheck32BitDims(t *testing.T) {
	ok := mustBox(t, []uint64{0}, []uint64{math.MaxUint32})
	if err := Check32BitDims(ok); err != nil {
		t.Fatalf("Check32BitDims(ok): %v", err)
	}
	bad := mustBox(t, []uint64{0}, []uint64{math.MaxUint32 + 1})
	if err := Check32BitDims(bad); !errors.Is(err, ErrDimOverflow) {
		t.Fatalf("Check32BitDims(bad) = %v, want ErrDimOverflow", err)
	}
}

func TestSubAndAssembleRoundTrip2D(t *testing.T) {
	global := mustBox(t, []uint64{0, 0}, []uint64{8, 8})
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	whole, err := NewDenseBlock(global, data)
	if err != nil {
		t.Fatal(err)
	}
	// Split into 4 quadrant blocks, then reassemble an arbitrary region.
	var parts []Block
	for _, lo := range [][2]uint64{{0, 0}, {0, 4}, {4, 0}, {4, 4}} {
		box := mustBox(t, []uint64{lo[0], lo[1]}, []uint64{lo[0] + 4, lo[1] + 4})
		sub, err := whole.Sub(box)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, sub)
	}
	region := mustBox(t, []uint64{2, 3}, []uint64{6, 7})
	got, err := Assemble(region, parts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Sub(region)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("assembled data mismatch:\ngot  %v\nwant %v", got.Data, want.Data)
	}
}

func TestAssembleIncomplete(t *testing.T) {
	region := mustBox(t, []uint64{0, 0}, []uint64{4, 4})
	part := mustBox(t, []uint64{0, 0}, []uint64{2, 4})
	blk, err := NewDenseBlock(part, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(region, []Block{blk}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Assemble = %v, want ErrIncomplete", err)
	}
}

// TestAssembleRejectsOverCoverage checks that a part counted twice, as
// a retried fetch appended again would be, fails instead of passing
// because the coverage count reaches the region's size.
func TestAssembleRejectsOverCoverage(t *testing.T) {
	region := mustBox(t, []uint64{0}, []uint64{100})
	left := NewSyntheticBlock(mustBox(t, []uint64{0}, []uint64{60}))
	right := NewSyntheticBlock(mustBox(t, []uint64{60}, []uint64{100}))
	if _, err := Assemble(region, []Block{left, right}); err != nil {
		t.Fatalf("exact tiling: %v", err)
	}
	if _, err := Assemble(region, []Block{left, right, right}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("duplicated part: Assemble = %v, want ErrIncomplete", err)
	}
}

func TestAssembleSynthetic(t *testing.T) {
	region := mustBox(t, []uint64{0}, []uint64{100})
	parts := []Block{
		NewSyntheticBlock(mustBox(t, []uint64{0}, []uint64{60})),
		NewSyntheticBlock(mustBox(t, []uint64{60}, []uint64{100})),
	}
	got, err := Assemble(region, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dense() {
		t.Fatal("synthetic assembly must stay synthetic")
	}
	if got.Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", got.Bytes())
	}
}

func TestSplitAlongExactCover(t *testing.T) {
	b := mustBox(t, []uint64{0, 0, 0}, []uint64{5, 13, 7})
	parts, err := SplitAlong(b, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	lo := uint64(0)
	for _, p := range parts {
		if p.Lo[1] != lo {
			t.Fatalf("gap at %d: part starts at %d", lo, p.Lo[1])
		}
		lo = p.Hi[1]
		total += p.NumElems()
	}
	if lo != 13 {
		t.Fatalf("parts end at %d, want 13", lo)
	}
	if total != b.NumElems() {
		t.Fatalf("total elems %d, want %d", total, b.NumElems())
	}
}

func TestStagingRegionsLongestDim(t *testing.T) {
	// LAMMPS-style output: 5 x 32 x 512000; the longest dimension is the
	// last one, so the regions split dim 2 regardless of how the writers
	// scale — the root cause of Figure 8a's N-to-1 access.
	global := mustBox(t, []uint64{0, 0, 0}, []uint64{5, 32, 512000})
	regions, err := StagingRegions(global, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("regions = %d, want 4", len(regions))
	}
	for i, r := range regions {
		if r.Hi[0]-r.Lo[0] != 5 || r.Hi[1]-r.Lo[1] != 32 {
			t.Fatalf("region %d %s does not span dims 0,1", i, r)
		}
		if r.Hi[2]-r.Lo[2] != 128000 {
			t.Fatalf("region %d extent %d on dim 2, want 128000", i, r.Hi[2]-r.Lo[2])
		}
	}
}

func TestStagingRegionsPowerOfTwo(t *testing.T) {
	global := mustBox(t, []uint64{0}, []uint64{1024})
	regions, err := StagingRegions(global, 3) // 3 servers -> 4 regions
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("regions = %d, want 4 (2^ceil(log2 3))", len(regions))
	}
	if RegionServer(3, 3) != 0 {
		t.Fatalf("RegionServer(3,3) = %d, want 0", RegionServer(3, 3))
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: splitting a box and reassembling any random contained region
// from the parts reproduces the original data exactly.
func TestSplitAssembleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []uint64{uint64(r.Intn(6) + 2), uint64(r.Intn(20) + 4), uint64(r.Intn(10) + 2)}
		global := WholeArray(dims)
		data := make([]float64, global.NumElems())
		for i := range data {
			data[i] = r.Float64()
		}
		whole, err := NewDenseBlock(global, data)
		if err != nil {
			return false
		}
		n := r.Intn(3) + 2
		boxes, err := SplitAlong(global, 1, n)
		if err != nil {
			return false
		}
		parts := make([]Block, 0, n)
		for _, b := range boxes {
			sub, err := whole.Sub(b)
			if err != nil {
				return false
			}
			parts = append(parts, sub)
		}
		// Random contained region.
		lo := make([]uint64, 3)
		hi := make([]uint64, 3)
		for i, d := range dims {
			lo[i] = uint64(r.Intn(int(d)))
			hi[i] = lo[i] + uint64(r.Intn(int(d-lo[i]))) + 1
		}
		region, err := NewBox(lo, hi)
		if err != nil {
			return false
		}
		got, err := Assemble(region, parts)
		if err != nil {
			return false
		}
		want, err := whole.Sub(region)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Data, want.Data)
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, _ *rand.Rand) {
			v[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Overlaps agrees with Intersect on arbitrary box pairs,
// empty boxes (an extent of 0 in some dimension) included. Corners lie in
// [0, 20) so most pairs are near each other.
func TestOverlapsMatchesIntersect(t *testing.T) {
	f := func(aLo, aExt, bLo, bExt [3]uint8) bool {
		lo1 := make([]uint64, 3)
		hi1 := make([]uint64, 3)
		lo2 := make([]uint64, 3)
		hi2 := make([]uint64, 3)
		for i := 0; i < 3; i++ {
			lo1[i] = uint64(aLo[i] % 20)
			hi1[i] = lo1[i] + uint64(aExt[i]%17)
			lo2[i] = uint64(bLo[i] % 20)
			hi2[i] = lo2[i] + uint64(bExt[i]%17)
		}
		a, err1 := NewBox(lo1, hi1)
		b, err2 := NewBox(lo2, hi2)
		if err1 != nil || err2 != nil {
			return false
		}
		_, want := a.Intersect(b)
		return a.Overlaps(b) == want && b.Overlaps(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapsRankMismatch(t *testing.T) {
	a := WholeArray([]uint64{4, 4})
	b := WholeArray([]uint64{4})
	if a.Overlaps(b) {
		t.Fatal("rank mismatch must not overlap")
	}
}
