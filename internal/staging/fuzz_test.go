package staging

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// FuzzBlockSetQuery feeds a version's block set arbitrary 2-D block
// layouts — single-dimension tilings and layouts that differ in both
// dimensions — and checks every query against a linear scan of the
// inserted blocks: the same sub-blocks, in insertion order. The
// encoding is 4 bytes per box (lo/width per dimension); the final 4
// bytes are the query box.
func FuzzBlockSetQuery(f *testing.F) {
	// Row-slab tiling plus a query spanning two slabs.
	f.Add([]byte{0, 4, 0, 8, 4, 4, 0, 8, 8, 4, 0, 8, 2, 8, 1, 6})
	// The same tiling inserted out of order.
	f.Add([]byte{8, 4, 0, 8, 0, 4, 0, 8, 4, 4, 0, 8, 2, 8, 1, 6})
	// Layout differing in both dimensions.
	f.Add([]byte{0, 4, 0, 4, 4, 4, 4, 4, 0, 4, 4, 4, 1, 6, 1, 6})
	// Duplicate and overlapping boxes.
	f.Add([]byte{3, 5, 3, 5, 3, 5, 3, 5, 0, 16, 0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		mk := func(b []byte) ndarray.Box {
			lo0, w0 := uint64(b[0]%32), uint64(b[1]%16)+1
			lo1, w1 := uint64(b[2]%32), uint64(b[3]%16)+1
			bx, err := ndarray.NewBox([]uint64{lo0, lo1}, []uint64{lo0 + w0, lo1 + w1})
			if err != nil {
				t.Fatalf("NewBox: %v", err)
			}
			return bx
		}
		bs := &blockSet{}
		var boxes []ndarray.Box
		n := min(len(data)/4-1, 64)
		for i := 0; i < n; i++ {
			bx := mk(data[i*4:])
			bs.index.Add(ndarray.NewSyntheticBlock(bx))
			boxes = append(boxes, bx)
		}
		query := mk(data[len(data)-4:])
		got, err := bs.query(nil, query)
		if err != nil {
			t.Fatalf("query(%v): %v", query, err)
		}
		var want []ndarray.Box
		for _, bx := range boxes {
			if ov, ok := bx.Intersect(query); ok {
				want = append(want, ov)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v over %v returned %d sub-blocks, linear scan %d",
				query, boxes, len(got), len(want))
		}
		for i, blk := range got {
			if !blk.Box.Equal(want[i]) {
				t.Fatalf("query %v over %v: sub-block %d is %v, linear scan %v",
					query, boxes, i, blk.Box, want[i])
			}
		}
	})
}
