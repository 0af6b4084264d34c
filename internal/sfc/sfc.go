// Package sfc sizes the index space of the Hilbert space-filling curve
// that DataSpaces uses to index staged data (Section III-B3). Coordinates
// live in a padded index space of 2^k per dimension — the padding the
// paper identifies as a driver of DataSpaces' superlinear indexing memory
// (Figure 6). Only the size of that space is modelled, not where a cell
// lands on the curve.
package sfc

import "math/bits"

// BitsFor returns the smallest k >= 1 with 2^k >= extent, i.e. the curve
// order needed to cover a dimension of that extent.
func BitsFor(extent uint64) int {
	if extent <= 1 {
		return 1
	}
	return bits.Len64(extent - 1)
}

// PaddedExtent returns 2^BitsFor(extent), the smallest power-of-two index
// extent that covers a dimension of the given size.
func PaddedExtent(extent uint64) uint64 { return 1 << uint(BitsFor(extent)) }
