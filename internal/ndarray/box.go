// Package ndarray provides the n-dimensional array data model shared by
// every staging library in the testbed: bounding boxes over a global
// index space, domain decompositions, and dense or synthetic payloads.
//
// Boxes use uint64 coordinates throughout; the paper's Table IV notes
// that 32-bit dimension arithmetic overflows on realistic problem sizes,
// and Check32BitDims reproduces that legacy failure mode for the
// robustness experiments.
package ndarray

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimOverflow reports a dimension that would overflow legacy 32-bit
// dimension arithmetic (Table IV, "data dimension overflow").
var ErrDimOverflow = errors.New("ndarray: dimension overflows 32-bit integer")

// ElemSize is the size in bytes of one array element (double precision,
// matching the paper's workloads).
const ElemSize = 8

// Box is an axis-aligned region of a global index space: Lo is inclusive,
// Hi is exclusive, one entry per dimension.
type Box struct {
	Lo []uint64 `json:"lo"`
	Hi []uint64 `json:"hi"`
}

// NewBox returns a box spanning [lo, hi) in every dimension.
func NewBox(lo, hi []uint64) (Box, error) {
	if len(lo) != len(hi) {
		return Box{}, fmt.Errorf("ndarray: rank mismatch %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("ndarray: dim %d: lo %d > hi %d", i, lo[i], hi[i])
		}
	}
	b := Box{Lo: make([]uint64, len(lo)), Hi: make([]uint64, len(hi))}
	copy(b.Lo, lo)
	copy(b.Hi, hi)
	return b, nil
}

// WholeArray returns the box covering a global array of the given dims.
func WholeArray(dims []uint64) Box {
	lo := make([]uint64, len(dims))
	hi := make([]uint64, len(dims))
	copy(hi, dims)
	return Box{Lo: lo, Hi: hi}
}

// Rank returns the number of dimensions.
func (b Box) Rank() int { return len(b.Lo) }

// Dims returns the extent of the box in each dimension.
func (b Box) Dims() []uint64 {
	d := make([]uint64, len(b.Lo))
	for i := range d {
		d[i] = b.Hi[i] - b.Lo[i]
	}
	return d
}

// NumElems returns the number of elements in the box.
func (b Box) NumElems() uint64 {
	if len(b.Lo) == 0 {
		return 0
	}
	n := uint64(1)
	for i := range b.Lo {
		n *= b.Hi[i] - b.Lo[i]
	}
	return n
}

// Bytes returns the payload size of the box in bytes.
func (b Box) Bytes() int64 { return int64(b.NumElems()) * ElemSize }

// Empty reports whether the box contains no elements.
func (b Box) Empty() bool { return b.NumElems() == 0 }

// Equal reports whether two boxes cover the same region.
func (b Box) Equal(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for i := range b.Lo {
		if b.Lo[i] != o.Lo[i] || b.Hi[i] != o.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (b Box) Clone() Box {
	c, _ := NewBox(b.Lo, b.Hi)
	return c
}

// Intersect returns the overlap of two boxes and whether it is
// non-empty. An empty overlap costs no allocation, a non-empty one a
// single allocation: Lo and Hi share one backing array, each capped at
// its length so an append to either copies.
func (b Box) Intersect(o Box) (Box, bool) {
	if !b.Overlaps(o) {
		return Box{}, false
	}
	n := len(b.Lo)
	buf := make([]uint64, 2*n)
	lo, hi := buf[:n:n], buf[n:]
	for i := range b.Lo {
		lo[i] = max(b.Lo[i], o.Lo[i])
		hi[i] = min(b.Hi[i], o.Hi[i])
	}
	return Box{Lo: lo, Hi: hi}, true
}

// overlapElems returns the number of elements b and o share, without
// building their intersection; like NumElems, it is 0 for rank 0.
func (b Box) overlapElems(o Box) uint64 {
	if len(b.Lo) == 0 || !b.Overlaps(o) {
		return 0
	}
	n := uint64(1)
	for i := range b.Lo {
		n *= min(b.Hi[i], o.Hi[i]) - max(b.Lo[i], o.Lo[i])
	}
	return n
}

// Overlaps reports whether the boxes share any element, without
// allocating (the hot-path filter behind staging queries). It agrees
// with Intersect: an empty box overlaps nothing.
func (b Box) Overlaps(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for i := range b.Lo {
		if max(b.Lo[i], o.Lo[i]) >= min(b.Hi[i], o.Hi[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely within b.
func (b Box) Contains(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] || o.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the box as [lo..hi) per dimension.
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := range b.Lo {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d:%d", b.Lo[i], b.Hi[i])
	}
	sb.WriteByte(')')
	return sb.String()
}

// Check32BitDims returns ErrDimOverflow if any dimension extent or upper
// bound of the box does not fit in an unsigned 32-bit integer, modelling
// the legacy overflow failure in Table IV.
func Check32BitDims(b Box) error {
	for i := range b.Lo {
		if b.Hi[i] > math.MaxUint32 {
			return fmt.Errorf("%w: dim %d upper bound %d", ErrDimOverflow, i, b.Hi[i])
		}
	}
	return nil
}
