package ndarray

import (
	"cmp"
	"slices"
	"sort"
)

// BoxIndex finds which of a growing list of boxes overlap a query box.
// Hits come back as insertion indices in ascending order — exactly the
// subset and order a linear Overlaps scan would produce — so callers
// that act on hits in order (sending, assembling) behave as if they had
// scanned.
//
// For each dimension d the index keeps the box indices ordered by
// Lo[d] and the widest extent along d. A box can reach into a query
// only if its Lo[d] lies in [query.Lo[d]-maxW, query.Hi[d]), so a query
// bisects that window in every dimension and tests only the boxes of
// the narrowest one. The ordering is rebuilt lazily at the first query
// after an Add. All boxes of one index must share a rank.
type BoxIndex struct {
	boxes []Box
	byDim [][]int32
	maxW  []uint64
	stale bool
	// tested counts boxes tested for overlap over all queries.
	tested int64
}

// Add appends b; its insertion index is the number of boxes added
// before it.
func (x *BoxIndex) Add(b Box) {
	x.boxes = append(x.boxes, b)
	x.stale = true
}

// Tested returns how many boxes all queries so far have tested for
// overlap: the index's work, as opposed to the len(boxes) per query of a
// linear scan.
func (x *BoxIndex) Tested() int64 { return x.tested }

// Overlapping appends to dst the insertion indices of the boxes that
// overlap box, in ascending order, and returns the extended slice.
func (x *BoxIndex) Overlapping(box Box, dst []int32) []int32 {
	if x.stale {
		x.rebuild()
	}
	bestD, bestLo, bestHi := -1, 0, len(x.boxes)
	for d, idx := range x.byDim {
		if d >= len(box.Lo) {
			break
		}
		minLo := uint64(0)
		if box.Lo[d] > x.maxW[d] {
			minLo = box.Lo[d] - x.maxW[d]
		}
		lo := sort.Search(len(idx), func(k int) bool { return x.boxes[idx[k]].Lo[d] >= minLo })
		hi := sort.Search(len(idx), func(k int) bool { return x.boxes[idx[k]].Lo[d] >= box.Hi[d] })
		if bestD < 0 || hi-lo < bestHi-bestLo {
			bestD, bestLo, bestHi = d, lo, hi
		}
	}
	start := len(dst)
	if bestD < 0 {
		for i, b := range x.boxes {
			x.tested++
			if b.Overlaps(box) {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range x.byDim[bestD][bestLo:bestHi] {
		x.tested++
		if x.boxes[i].Overlaps(box) {
			dst = append(dst, i)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// rebuild re-sorts every dimension's permutation and recomputes its
// widest extent.
func (x *BoxIndex) rebuild() {
	x.stale = false
	nd := len(x.boxes[0].Lo)
	if cap(x.byDim) < nd {
		x.byDim = make([][]int32, nd)
		x.maxW = make([]uint64, nd)
	}
	x.byDim, x.maxW = x.byDim[:nd], x.maxW[:nd]
	for d := 0; d < nd; d++ {
		idx := x.byDim[d][:0]
		x.maxW[d] = 0
		for i, b := range x.boxes {
			idx = append(idx, int32(i))
			x.maxW[d] = max(x.maxW[d], b.Hi[d]-b.Lo[d])
		}
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Compare(x.boxes[a].Lo[d], x.boxes[b].Lo[d])
		})
		x.byDim[d] = idx
	}
}
