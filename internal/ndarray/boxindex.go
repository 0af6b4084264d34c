package ndarray

import (
	"cmp"
	"slices"
	"sort"
)

// BoxIndex holds a growing list of blocks and finds which of them
// overlap a query box. Hits come back as insertion indices in ascending
// order — exactly the subset and order a linear Overlaps scan would
// produce — so callers that act on hits in order (sending, assembling)
// behave as if they had scanned.
//
// Sets of up to linearScanMax blocks are scanned. For larger sets the
// index keeps, for each dimension d, the block indices ordered by
// Lo[d] and the widest extent along d. A block can reach into a query
// only if its Lo[d] lies in [query.Lo[d]-maxW, query.Hi[d]), so a query
// bisects that window in every dimension and tests only the blocks of
// the narrowest one. A dimension in which every block has the same Lo
// (the full width of a set of slabs) cannot narrow the window: it has no
// ordering, and a query only checks that the shared Lo lies in its
// window. The orderings are rebuilt lazily at the first query after an
// Add. All blocks of one index must share a rank.
type BoxIndex struct {
	blocks []Block
	byDim  [][]int32
	maxW   []uint64
	oneLo  []bool
	stale  bool
	// tested counts blocks tested for overlap over all queries.
	tested int64
}

// linearScanMax is the largest set a query scans without the
// per-dimension orderings. Many sets never grow past one block (a DIMES
// or Flexpath client's store holds one per version), and for those the
// orderings would be allocated only to be bisected down to that block.
const linearScanMax = 8

// Add appends blk; its insertion index is the number of blocks added
// before it.
func (x *BoxIndex) Add(blk Block) {
	x.blocks = append(x.blocks, blk)
	x.stale = true
}

// Blocks returns the blocks in insertion order. The slice is the
// index's own; callers must not modify it.
func (x *BoxIndex) Blocks() []Block { return x.blocks }

// Tested returns how many blocks all queries so far have tested for
// overlap: the index's work, as opposed to the len(blocks) per query of
// a linear scan.
func (x *BoxIndex) Tested() int64 { return x.tested }

// Overlapping appends to dst the insertion indices of the blocks that
// overlap box, in ascending order, and returns the extended slice.
func (x *BoxIndex) Overlapping(box Box, dst []int32) []int32 {
	if len(x.blocks) <= linearScanMax {
		return x.scan(box, dst)
	}
	if x.stale {
		x.rebuild()
	}
	bestD, bestLo, bestHi := -1, 0, len(x.blocks)
	for d, idx := range x.byDim {
		if d >= len(box.Lo) {
			break
		}
		minLo := uint64(0)
		if box.Lo[d] > x.maxW[d] {
			minLo = box.Lo[d] - x.maxW[d]
		}
		if x.oneLo[d] {
			// All blocks lie in the window or none does.
			if lo := x.blocks[0].Box.Lo[d]; lo < minLo || lo >= box.Hi[d] {
				return dst
			}
			continue
		}
		lo := sort.Search(len(idx), func(k int) bool { return x.blocks[idx[k]].Box.Lo[d] >= minLo })
		hi := sort.Search(len(idx), func(k int) bool { return x.blocks[idx[k]].Box.Lo[d] >= box.Hi[d] })
		if bestD < 0 || hi-lo < bestHi-bestLo {
			bestD, bestLo, bestHi = d, lo, hi
		}
	}
	if bestD < 0 {
		return x.scan(box, dst)
	}
	start := len(dst)
	for _, i := range x.byDim[bestD][bestLo:bestHi] {
		x.tested++
		if x.blocks[i].Box.Overlaps(box) {
			dst = append(dst, i)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// scan tests every block in insertion order.
func (x *BoxIndex) scan(box Box, dst []int32) []int32 {
	for i, blk := range x.blocks {
		x.tested++
		if blk.Box.Overlaps(box) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// rebuild recomputes every dimension's widest extent and whether its
// Lo is shared, and re-sorts the permutation of each other dimension.
func (x *BoxIndex) rebuild() {
	x.stale = false
	nd := len(x.blocks[0].Box.Lo)
	if cap(x.byDim) < nd {
		x.byDim = make([][]int32, nd)
		x.maxW = make([]uint64, nd)
		x.oneLo = make([]bool, nd)
	}
	x.byDim, x.maxW, x.oneLo = x.byDim[:nd], x.maxW[:nd], x.oneLo[:nd]
	for d := 0; d < nd; d++ {
		lo0 := x.blocks[0].Box.Lo[d]
		x.maxW[d], x.oneLo[d] = 0, true
		for _, blk := range x.blocks {
			x.maxW[d] = max(x.maxW[d], blk.Box.Hi[d]-blk.Box.Lo[d])
			x.oneLo[d] = x.oneLo[d] && blk.Box.Lo[d] == lo0
		}
		if x.oneLo[d] {
			continue
		}
		idx := slices.Grow(x.byDim[d][:0], len(x.blocks))
		for i := range x.blocks {
			idx = append(idx, int32(i))
		}
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Compare(x.blocks[a].Box.Lo[d], x.blocks[b].Box.Lo[d])
		})
		x.byDim[d] = idx
	}
}
