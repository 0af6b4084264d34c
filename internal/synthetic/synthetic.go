// Package synthetic is the study's synthetic workflow (Table II): an MPI
// writer that outputs a configurable multi-dimensional array to staging
// in parallel, and a reader that retrieves and verifies it. It is the
// workload behind the data-layout experiment of Figure 9: the same
// 20 MB/processor can be laid out so that the writers' scaling dimension
// mismatches the staging decomposition (N-to-1 access) or matches it
// (N-to-N access).
package synthetic

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// Layout selects how the global array grows with the writer count.
type Layout int

// Layouts of Figure 9.
const (
	// LayoutMismatch scales dimension 1 of 5 x nprocs x 512000: the
	// staging decomposition splits the longest dimension (2), so every
	// writer touches every staging region in the same order — N-to-1.
	LayoutMismatch Layout = iota + 1
	// LayoutMatched scales dimension 2 of 5 x 512 x (1000 x nprocs): the
	// staging decomposition splits the same dimension the writers scale
	// over — N-to-N.
	LayoutMatched
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutMismatch:
		return "mismatch(5 x nprocs x 512000)"
	case LayoutMatched:
		return "matched(5 x 512 x 1000*nprocs)"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Per-writer extents chosen so both layouts stage 20.48 MB per processor
// (5 x 512000 = 5 x 512 x 1000 = 2,560,000 doubles).
const (
	mismatchDepth = 512000
	matchedRows   = 512
	matchedDepth  = 1000
	props         = 5
)

// GlobalBox returns the global array for nprocs writers under the layout.
func GlobalBox(l Layout, nprocs int) (ndarray.Box, error) {
	switch l {
	case LayoutMismatch:
		return ndarray.WholeArray([]uint64{props, uint64(nprocs), mismatchDepth}), nil
	case LayoutMatched:
		return ndarray.WholeArray([]uint64{props, matchedRows, uint64(nprocs) * matchedDepth}), nil
	default:
		return ndarray.Box{}, fmt.Errorf("synthetic: unknown layout %d", int(l))
	}
}

// WriterBox returns writer rank's portion under the layout.
func WriterBox(l Layout, nprocs, rank int) (ndarray.Box, error) {
	g, err := GlobalBox(l, nprocs)
	if err != nil {
		return ndarray.Box{}, err
	}
	switch l {
	case LayoutMismatch:
		g.Lo[1] = uint64(rank)
		g.Hi[1] = uint64(rank + 1)
	case LayoutMatched:
		g.Lo[2] = uint64(rank) * matchedDepth
		g.Hi[2] = uint64(rank+1) * matchedDepth
	}
	return g, nil
}

// ReaderBox returns reader rank's portion (contiguous writer groups).
func ReaderBox(l Layout, nprocs, nReaders, rank int) (ndarray.Box, error) {
	g, err := GlobalBox(l, nprocs)
	if err != nil {
		return ndarray.Box{}, err
	}
	per := nprocs / nReaders
	rem := nprocs % nReaders
	lo := rank*per + min(rank, rem)
	size := per
	if rank < rem {
		size++
	}
	switch l {
	case LayoutMismatch:
		g.Lo[1] = uint64(lo)
		g.Hi[1] = uint64(lo + size)
	case LayoutMatched:
		g.Lo[2] = uint64(lo) * matchedDepth
		g.Hi[2] = uint64(lo+size) * matchedDepth
	}
	return g, nil
}

// PerWriterBytes returns the staged bytes per writer (identical across
// layouts by construction).
func PerWriterBytes() int64 {
	return int64(props) * mismatchDepth * ndarray.ElemSize
}

// valueAt is the deterministic fill: a function of the global coordinate,
// so any assembled region is verifiable.
func valueAt(c0, c1, c2 uint64) float64 {
	return float64(c0)*1e9 + float64(c1)*1e3 + float64(c2)*1e-3
}

// FillBlock produces writer rank's dense block under the layout.
func FillBlock(l Layout, nprocs, rank int) (ndarray.Block, error) {
	box, err := WriterBox(l, nprocs, rank)
	if err != nil {
		return ndarray.Block{}, err
	}
	data := make([]float64, box.NumElems())
	idx := 0
	for c0 := box.Lo[0]; c0 < box.Hi[0]; c0++ {
		for c1 := box.Lo[1]; c1 < box.Hi[1]; c1++ {
			for c2 := box.Lo[2]; c2 < box.Hi[2]; c2++ {
				data[idx] = valueAt(c0, c1, c2)
				idx++
			}
		}
	}
	return ndarray.NewDenseBlock(box, data)
}

// VerifyBlock checks every element of a dense block against the
// deterministic fill.
func VerifyBlock(blk ndarray.Block) error {
	if !blk.Dense() {
		return fmt.Errorf("synthetic: cannot verify synthetic block")
	}
	idx := 0
	for c0 := blk.Box.Lo[0]; c0 < blk.Box.Hi[0]; c0++ {
		for c1 := blk.Box.Lo[1]; c1 < blk.Box.Hi[1]; c1++ {
			for c2 := blk.Box.Lo[2]; c2 < blk.Box.Hi[2]; c2++ {
				if blk.Data[idx] != valueAt(c0, c1, c2) {
					return fmt.Errorf("synthetic: element (%d,%d,%d) = %v, want %v",
						c0, c1, c2, blk.Data[idx], valueAt(c0, c1, c2))
				}
				idx++
			}
		}
	}
	return nil
}
