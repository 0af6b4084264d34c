package ndarray

import (
	"errors"
	"fmt"
)

// ErrIncomplete is returned by Assemble when the available blocks do not
// tile the requested region: they leave part of it uncovered or cover
// part of it twice.
var ErrIncomplete = errors.New("ndarray: blocks do not tile requested region")

// Block is a rectangular piece of a distributed array: a box plus either a
// dense payload (row-major float64, used for correctness runs) or no
// payload (synthetic runs, where only the byte size matters for timing).
type Block struct {
	Box  Box
	Data []float64 // nil for synthetic blocks
}

// NewDenseBlock returns a block carrying real data for the box. The data
// slice is owned by the block afterwards; len(data) must equal the box's
// element count.
func NewDenseBlock(b Box, data []float64) (Block, error) {
	if uint64(len(data)) != b.NumElems() {
		return Block{}, fmt.Errorf("ndarray: data length %d != box elems %d", len(data), b.NumElems())
	}
	return Block{Box: b, Data: data}, nil
}

// NewSyntheticBlock returns a size-only block for the box.
func NewSyntheticBlock(b Box) Block { return Block{Box: b} }

// Bytes returns the block payload size in bytes.
func (blk Block) Bytes() int64 { return blk.Box.Bytes() }

// Dense reports whether the block carries real data.
func (blk Block) Dense() bool { return blk.Data != nil }

// Sub extracts the portion of the block covering region, which must lie
// inside the block's box. Dense blocks copy the covered elements;
// synthetic blocks return a synthetic sub-block.
func (blk Block) Sub(region Box) (Block, error) {
	if !blk.Box.Contains(region) {
		return Block{}, fmt.Errorf("ndarray: region %s outside block %s", region, blk.Box)
	}
	if !blk.Dense() {
		return NewSyntheticBlock(region), nil
	}
	out := make([]float64, region.NumElems())
	copyRegion(out, region, blk.Data, blk.Box, region)
	return Block{Box: region, Data: out}, nil
}

// Assemble gathers the region from the given blocks into one dense block.
// If every contributing block is synthetic the result is synthetic; mixing
// dense and synthetic contributions is an error. The blocks must tile the
// region exactly: Assemble fails with ErrIncomplete if they cover fewer
// or more elements of it than it holds, so a gap and a block counted
// twice (a retried fetch appended again) are both caught.
func Assemble(region Box, blocks []Block) (Block, error) {
	covered := uint64(0)
	dense := false
	synthetic := false
	var out []float64
	for _, blk := range blocks {
		n := blk.Box.overlapElems(region)
		if n == 0 {
			continue
		}
		covered += n
		if blk.Dense() {
			dense = true
			if out == nil {
				out = make([]float64, region.NumElems())
			}
			overlap, _ := blk.Box.Intersect(region)
			copyRegion(out, region, blk.Data, blk.Box, overlap)
		} else {
			synthetic = true
		}
	}
	if dense && synthetic {
		return Block{}, errors.New("ndarray: cannot assemble mixed dense and synthetic blocks")
	}
	if covered != region.NumElems() {
		return Block{}, fmt.Errorf("%w: %s (covered %d of %d elems)",
			ErrIncomplete, region, covered, region.NumElems())
	}
	if synthetic {
		return NewSyntheticBlock(region), nil
	}
	return Block{Box: region, Data: out}, nil
}

// copyRegion copies the elements of region from src (laid out row-major
// over srcBox) into dst (laid out row-major over dstBox). The region must
// be contained in both boxes. The innermost dimension is copied with a
// single copy per run for efficiency.
func copyRegion(dst []float64, dstBox Box, src []float64, srcBox Box, region Box) {
	rank := region.Rank()
	if rank == 0 || region.Empty() {
		return
	}
	dstStrides := strides(dstBox)
	srcStrides := strides(srcBox)
	rowLen := region.Hi[rank-1] - region.Lo[rank-1]

	// Odometer over all dimensions except the last.
	coord := make([]uint64, rank)
	copy(coord, region.Lo)
	for {
		dOff := offsetOf(coord, dstBox, dstStrides)
		sOff := offsetOf(coord, srcBox, srcStrides)
		copy(dst[dOff:dOff+rowLen], src[sOff:sOff+rowLen])
		// Advance the odometer (dims 0..rank-2).
		d := rank - 2
		for d >= 0 {
			coord[d]++
			if coord[d] < region.Hi[d] {
				break
			}
			coord[d] = region.Lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
}

func strides(b Box) []uint64 {
	rank := b.Rank()
	s := make([]uint64, rank)
	s[rank-1] = 1
	for i := rank - 2; i >= 0; i-- {
		s[i] = s[i+1] * (b.Hi[i+1] - b.Lo[i+1])
	}
	return s
}

func offsetOf(coord []uint64, b Box, s []uint64) uint64 {
	off := uint64(0)
	for i := range coord {
		off += (coord[i] - b.Lo[i]) * s[i]
	}
	return off
}
