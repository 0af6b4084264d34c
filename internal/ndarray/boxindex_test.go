package ndarray

import (
	"math/rand"
	"slices"
	"testing"
)

// bruteOverlapping is the linear scan BoxIndex must reproduce.
func bruteOverlapping(boxes []Box, q Box) []int32 {
	var out []int32
	for i, b := range boxes {
		if b.Overlaps(q) {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkIndexQuery compares one query against the brute-force scan.
func checkIndexQuery(t *testing.T, x *BoxIndex, boxes []Box, q Box) {
	t.Helper()
	got := x.Overlapping(q, nil)
	want := bruteOverlapping(boxes, q)
	if !slices.Equal(got, want) {
		t.Fatalf("Overlapping(%v) over %v = %v, want %v", q, boxes, got, want)
	}
}

// FuzzBoxIndex drives a BoxIndex with arbitrary 1-D to 3-D box sets and
// checks every query against a brute-force Overlaps scan: the same
// subset, in ascending insertion order. The first byte picks the rank
// (1 + b%3); the rest is a sequence of ops of 1 + 2*rank bytes each. An
// op byte divisible by 4 queries, any other adds, so adds interleave
// with queries and the lazy rebuild runs between them; each dimension
// takes a lo byte (mod 32) and a width byte (mod 17, so empty boxes
// occur). A final query of the whole set runs after the last op.
func FuzzBoxIndex(f *testing.F) {
	// The FuzzBlockSetQuery shapes, as 2-D adds then one query: a row-slab
	// tiling queried across two slabs; a layout differing in both
	// dimensions; duplicate and overlapping boxes.
	f.Add([]byte{1, 1, 0, 4, 0, 8, 1, 4, 4, 0, 8, 1, 8, 4, 0, 8, 0, 2, 8, 1, 6})
	f.Add([]byte{1, 1, 0, 4, 0, 4, 1, 4, 4, 4, 4, 1, 0, 4, 4, 4, 0, 1, 6, 1, 6})
	f.Add([]byte{1, 1, 3, 5, 3, 5, 1, 3, 5, 3, 5, 1, 0, 16, 0, 16, 0, 3, 5, 3, 5})
	// 1-D: same Lo with different widths, queried before and after adds.
	f.Add([]byte{0, 1, 4, 2, 1, 4, 9, 0, 5, 1, 1, 0, 3, 0, 0, 0, 8, 16})
	// 1-D, ten staggered overlapping boxes, so queries past the small-set
	// scan bisect; two more adds then force a rebuild before the last.
	f.Add([]byte{0, 1, 0, 5, 1, 3, 5, 1, 6, 5, 1, 9, 5, 1, 12, 5, 1, 15, 5,
		1, 18, 5, 1, 21, 5, 1, 24, 5, 1, 27, 5, 0, 10, 6, 1, 2, 16, 1, 30, 2, 0, 0, 3})
	// 3-D mixed layout with an empty box and interleaved queries.
	f.Add([]byte{2, 1, 0, 4, 0, 4, 0, 4, 1, 4, 4, 0, 4, 4, 0, 0, 2, 4, 2, 4, 2, 4,
		1, 2, 0, 2, 4, 2, 4, 0, 0, 8, 0, 8, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			t.Skip()
		}
		nd := int(data[0]%3) + 1
		mk := func(b []byte) Box {
			lo, hi := make([]uint64, nd), make([]uint64, nd)
			for d := 0; d < nd; d++ {
				lo[d] = uint64(b[2*d] % 32)
				hi[d] = lo[d] + uint64(b[2*d+1]%17)
			}
			bx, err := NewBox(lo, hi)
			if err != nil {
				t.Fatalf("NewBox: %v", err)
			}
			return bx
		}
		var x BoxIndex
		var boxes []Box
		op := 1 + 2*nd
		for rest := data[1:]; len(rest) >= op && len(boxes) < 64; rest = rest[op:] {
			bx := mk(rest[1:])
			if rest[0]%4 == 0 {
				checkIndexQuery(t, &x, boxes, bx)
				continue
			}
			x.Add(NewSyntheticBlock(bx))
			boxes = append(boxes, bx)
		}
		whole := make([]uint64, nd)
		for d := range whole {
			whole[d] = 64
		}
		checkIndexQuery(t, &x, boxes, WholeArray(whole))
	})
}

// TestBoxIndexMatchesBruteForce runs seeded random sets of freely
// overlapping 1-D to 3-D boxes, querying between adds, so plain test
// runs cover larger sets than the fuzz seeds.
func TestBoxIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nd := 1 + rng.Intn(3)
		var x BoxIndex
		var boxes []Box
		for k := 0; k < 1+rng.Intn(80); k++ {
			lo, hi := make([]uint64, nd), make([]uint64, nd)
			for d := 0; d < nd; d++ {
				lo[d] = uint64(rng.Intn(100))
				hi[d] = lo[d] + uint64(rng.Intn(30))
			}
			if rng.Intn(3) == 0 {
				checkIndexQuery(t, &x, boxes, Box{Lo: lo, Hi: hi})
				continue
			}
			x.Add(NewSyntheticBlock(Box{Lo: lo, Hi: hi}))
			boxes = append(boxes, Box{Lo: lo, Hi: hi})
		}
	}
}
