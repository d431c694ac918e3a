package sat

import (
	"math"
	"sort"

	"pcbound/internal/domain"
)

// This file holds the allocation-free box-subtraction engine behind Sat,
// Witness and RemainderBoxes. It replaces the original recursive,
// Clone()-per-piece search with an explicit-stack DFS over a per-call scratch
// arena: box storage, candidate lists and frames all live in reusable flat
// buffers drawn from a sync.Pool, so a satisfiability check performs no
// per-node heap allocation.
//
// The engine visits regions in exactly the order the recursive search
// does, so witnesses, remainder decompositions and their box order are
// bit-identical across the two. The recursive search survives only as the
// test oracle in reference_test.go, which arena_test.go and boundary_test.go
// compare against.
// Two prunings accelerate it without changing that order:
//
//  1. Candidate filtering: each frame keeps only the negated boxes that
//     overlap its region (a subset of the parent's candidates, in the same
//     ascending order). Boxes that cannot overlap a region are never looked
//     at again anywhere below it, replacing the reference's linear scan of
//     the full suffix at every node.
//  2. A per-dimension sorted index over the negated boxes (built once per
//     call for large negation sets): a piece carved at dimension d has a
//     tightened interval there, so a binary search over the boxes sorted by
//     their d-th interval bounds the candidate scan to the boxes that can
//     still reach the piece.

// negIndexMin is the negation-set size from which building the per-dimension
// sorted index pays for itself.
const negIndexMin = 24

// indexGain requires the index prescreen to eliminate at least this fraction
// of the parent's candidates before the indexed path is taken over the plain
// ascending scan.
const indexGain = 4

// frame is one suspended subtraction node: a region being carved against its
// selected negated box, with a cursor over the (dimension, side) pieces still
// to generate.
type frame struct {
	boxOff  int // region storage: sc.boxArena[boxOff : boxOff+dims]
	candOff int // candidate list: sc.candArena[candOff : candOff+candLen]
	candLen int
	d       int  // next dimension to carve
	phase   int8 // 0 = low side of d pending, 1 = high side pending

	// boxMark/candMark are the arena lengths at frame creation; popping the
	// frame truncates the arenas back to them, freeing the region, the
	// candidate list and everything allocated by the frame's children.
	boxMark, candMark int
}

// scratch is the per-call arena. Solvers pool scratches, so steady-state
// satisfiability checks allocate nothing.
type scratch struct {
	frames    []frame
	boxArena  []domain.Interval
	candArena []int32

	// Per-dimension sorted index (only built when len(neg) >= negIndexMin):
	// sortedLo[d] holds neg indices ascending by neg[i][d].Lo, sortedHi[d]
	// ascending by neg[i][d].Hi.
	sortedLo, sortedHi [][]int32
	indexBuilt         bool

	// stamp marks candidate membership during indexed filtering; a generation
	// counter avoids clearing it between uses.
	stamp    []uint32
	stampGen uint32

	collect []int32 // reusable buffer for indexed candidate collection
	nodes   int64   // local node counter, folded into Solver stats once per call

	// Per-call emit state. A mode switch instead of a callback keeps the
	// search loop closure-free (a closure plus its captures would otherwise
	// be heap-allocated on every satisfiability check).
	mode      int8
	witness   domain.Row   // modeWitness: representative of the first region
	collected []domain.Box // modeCollect: cloned uncovered regions
}

const (
	modeWitness int8 = iota // stop at the first uncovered region
	modeCollect             // collect every uncovered region
)

func (s *Solver) getScratch() *scratch {
	if v := s.scratchPool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

func (s *Solver) putScratch(sc *scratch) {
	sc.frames = sc.frames[:0]
	sc.boxArena = sc.boxArena[:0]
	sc.candArena = sc.candArena[:0]
	sc.indexBuilt = false
	sc.nodes = 0
	s.scratchPool.Put(sc)
}

// overlapsFor reports whether a and b share a lattice point, without
// materializing the intersection.
func overlapsFor(kinds []domain.Kind, a, b domain.Box) bool {
	for d := range a {
		lo, hi := a[d].Lo, a[d].Hi
		if b[d].Lo > lo {
			lo = b[d].Lo
		}
		if b[d].Hi < hi {
			hi = b[d].Hi
		}
		if emptyIntervalFor(lo, hi, kinds[d]) {
			return false
		}
	}
	return true
}

// emptyIntervalFor reports whether [lo, hi] holds no lattice point of kind k.
func emptyIntervalFor(lo, hi float64, k domain.Kind) bool {
	if lo > hi {
		return true
	}
	if k == domain.Integral {
		return math.Ceil(lo) > math.Floor(hi)
	}
	return false
}

// search runs the iterative subtraction DFS over b \ ∪neg, visiting maximal
// uncovered regions in the reference implementation's order. Depending on
// sc.mode it either stops at the first region (recording its representative
// in sc.witness) or clones every region into sc.collected. It reports
// whether the search was stopped early by a witness.
func (s *Solver) search(sc *scratch, b domain.Box, neg []domain.Box) bool {
	dims := len(b)
	kinds := s.kinds
	sc.nodes++
	if boxEmptyFor(kinds, b) {
		return false
	}
	if len(neg) >= negIndexMin {
		sc.buildIndex(neg, dims)
	}

	// Root: copy the region into the arena and filter the full negation set.
	boxMark, candMark := len(sc.boxArena), len(sc.candArena)
	sc.boxArena = append(sc.boxArena, b...)
	for i := range neg {
		if overlapsFor(kinds, b, neg[i]) {
			sc.candArena = append(sc.candArena, int32(i))
		}
	}
	candLen := len(sc.candArena) - candMark
	if candLen == 0 {
		return s.emitRegion(sc, b)
	}
	if neg[sc.candArena[candMark]].ContainsBox(b) {
		sc.boxArena = sc.boxArena[:boxMark]
		sc.candArena = sc.candArena[:candMark]
		return false
	}
	sc.frames = append(sc.frames, frame{
		boxOff: boxMark, candOff: candMark, candLen: candLen,
		boxMark: boxMark, candMark: candMark,
	})

	for len(sc.frames) > 0 {
		top := len(sc.frames) - 1
		f := &sc.frames[top]
		// The selected negated box is always the frame's first candidate:
		// candidates are filtered at creation, so the first is the first
		// overlapping box, exactly as the reference's scan selects it.
		n := neg[sc.candArena[f.candOff]]
		pushed := false
		for f.d < dims {
			d := f.d
			region := sc.boxArena[f.boxOff : f.boxOff+dims]
			var pieceLo, pieceHi float64
			var carved bool
			if f.phase == 0 {
				f.phase = 1
				if region[d].Lo < n[d].Lo {
					pieceLo, pieceHi = region[d].Lo, pred(n[d].Lo, kinds[d])
					region[d].Lo = n[d].Lo
					carved = true
				}
			} else {
				f.phase = 0
				f.d++
				if region[d].Hi > n[d].Hi {
					pieceLo, pieceHi = succ(n[d].Hi, kinds[d]), region[d].Hi
					region[d].Hi = n[d].Hi
					carved = true
				}
			}
			if !carved {
				continue
			}
			stop, child := s.pushPiece(sc, f, neg, d, pieceLo, pieceHi)
			if stop {
				return true
			}
			if child {
				pushed = true
				break
			}
			// Frame storage may have moved if pushPiece grew an arena; the
			// loop re-slices region from the offset, and f stays valid because
			// nothing was pushed.
			f = &sc.frames[top]
		}
		if pushed {
			continue
		}
		// Cursor exhausted: the rest of the region is covered by n. Pop.
		f = &sc.frames[top]
		sc.boxArena = sc.boxArena[:f.boxMark]
		sc.candArena = sc.candArena[:f.candMark]
		sc.frames = sc.frames[:top]
	}
	return false
}

// pushPiece materializes one carved piece (the parent's region with dimension
// d overridden to [lo, hi]), tests it, and either discards it, emits it, or
// pushes it as a new frame. Returns (stop, pushed).
func (s *Solver) pushPiece(sc *scratch, parent *frame, neg []domain.Box, d int, lo, hi float64) (bool, bool) {
	kinds := s.kinds
	dims := len(kinds)
	sc.nodes++
	if emptyIntervalFor(lo, hi, kinds[d]) {
		return false, false
	}
	parentRegion := sc.boxArena[parent.boxOff : parent.boxOff+dims]
	for dd := 0; dd < dims; dd++ {
		if dd == d {
			continue
		}
		if emptyIntervalFor(parentRegion[dd].Lo, parentRegion[dd].Hi, kinds[dd]) {
			return false, false
		}
	}

	// Allocate the piece's region at the arena top.
	boxMark := len(sc.boxArena)
	sc.boxArena = append(sc.boxArena, parentRegion...)
	piece := sc.boxArena[boxMark : boxMark+dims]
	piece[d] = domain.Interval{Lo: lo, Hi: hi}

	// Filter the parent's remaining candidates (everything after the selected
	// box) down to those overlapping the piece, preserving ascending order.
	candMark := len(sc.candArena)
	rest := sc.candArena[parent.candOff+1 : parent.candOff+parent.candLen]
	if !s.filterIndexed(sc, neg, rest, piece, d) {
		for _, ci := range rest {
			if overlapsFor(kinds, piece, neg[ci]) {
				sc.candArena = append(sc.candArena, ci)
			}
		}
	}
	candLen := len(sc.candArena) - candMark

	if candLen == 0 {
		stop := s.emitRegion(sc, piece)
		sc.boxArena = sc.boxArena[:boxMark]
		sc.candArena = sc.candArena[:candMark]
		return stop, false
	}
	if neg[sc.candArena[candMark]].ContainsBox(piece) {
		sc.boxArena = sc.boxArena[:boxMark]
		sc.candArena = sc.candArena[:candMark]
		return false, false
	}
	sc.frames = append(sc.frames, frame{
		boxOff: boxMark, candOff: candMark, candLen: candLen,
		boxMark: boxMark, candMark: candMark,
	})
	return false, true
}

// buildIndex sorts the negated boxes by each dimension's interval bounds.
func (sc *scratch) buildIndex(neg []domain.Box, dims int) {
	if sc.indexBuilt {
		return
	}
	sc.indexBuilt = true
	k := len(neg)
	if cap(sc.sortedLo) < dims {
		sc.sortedLo = make([][]int32, dims)
		sc.sortedHi = make([][]int32, dims)
	}
	sc.sortedLo = sc.sortedLo[:dims]
	sc.sortedHi = sc.sortedHi[:dims]
	if cap(sc.stamp) < k {
		sc.stamp = make([]uint32, k)
		sc.stampGen = 0
	}
	sc.stamp = sc.stamp[:k]
	for d := 0; d < dims; d++ {
		lo, hi := sc.sortedLo[d], sc.sortedHi[d]
		if cap(lo) < k {
			lo = make([]int32, k)
			hi = make([]int32, k)
		}
		lo, hi = lo[:k], hi[:k]
		for i := 0; i < k; i++ {
			lo[i], hi[i] = int32(i), int32(i)
		}
		sortByKey(lo, neg, d, false)
		sortByKey(hi, neg, d, true)
		sc.sortedLo[d], sc.sortedHi[d] = lo, hi
	}
}

// filterIndexed attempts the index-accelerated candidate filter for a piece
// carved at dimension d. It reports whether it handled the filtering (false
// means the caller should fall back to the plain ascending scan). The carved
// dimension's tightened interval bounds which negated boxes can still reach
// the piece: boxes whose d-th interval starts above piece[d].Hi (or ends
// below piece[d].Lo) are eliminated by binary search before any full overlap
// test runs.
func (s *Solver) filterIndexed(sc *scratch, neg []domain.Box, rest []int32, piece domain.Box, d int) bool {
	if !sc.indexBuilt || len(rest) < 16 {
		return false
	}
	loIdx := sc.sortedLo[d]
	hiIdx := sc.sortedHi[d]
	// Eligible by low side: neg[i][d].Lo <= piece[d].Hi (prefix of loIdx).
	pHi := piece[d].Hi
	nLo := sort.Search(len(loIdx), func(j int) bool { return neg[loIdx[j]][d].Lo > pHi })
	// Eligible by high side: neg[i][d].Hi >= piece[d].Lo (suffix of hiIdx).
	pLo := piece[d].Lo
	sHi := sort.Search(len(hiIdx), func(j int) bool { return neg[hiIdx[j]][d].Hi >= pLo })
	nHi := len(hiIdx) - sHi

	var eligible []int32
	if nLo <= nHi {
		eligible = loIdx[:nLo]
	} else {
		eligible = hiIdx[sHi:]
	}
	if len(eligible)*indexGain > len(rest) {
		return false
	}

	// Stamp the rest set, walk the (small) eligible list, then restore
	// ascending order — candidate lists are ascending neg-index lists, which
	// is what keeps the visit order identical to the reference.
	if sc.stampGen == math.MaxUint32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.stampGen = 0
	}
	sc.stampGen++
	gen := sc.stampGen
	for _, ci := range rest {
		sc.stamp[ci] = gen
	}
	sc.collect = sc.collect[:0]
	kinds := s.kinds
	for _, ci := range eligible {
		if sc.stamp[ci] != gen {
			continue
		}
		if overlapsFor(kinds, piece, neg[ci]) {
			sc.collect = append(sc.collect, ci)
		}
	}
	sortInt32(sc.collect)
	sc.candArena = append(sc.candArena, sc.collect...)
	return true
}

// emitRegion handles one maximal uncovered region according to the scratch
// mode; it returns true to stop the search.
func (s *Solver) emitRegion(sc *scratch, r domain.Box) bool {
	if sc.mode == modeWitness {
		sc.witness = r.Representative(s.schema)
		return true
	}
	sc.collected = append(sc.collected, append(domain.Box(nil), r...))
	return false
}

// sortByKey insertion-sorts idx by neg[idx][d].Lo (or .Hi when byHi), ties by
// index. Negation sets are at most a few dozen boxes, where insertion sort
// beats sort.Slice and allocates nothing.
func sortByKey(idx []int32, neg []domain.Box, d int, byHi bool) {
	key := func(i int32) float64 {
		if byHi {
			return neg[i][d].Hi
		}
		return neg[i][d].Lo
	}
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		kv := key(v)
		j := i - 1
		for j >= 0 && (key(idx[j]) > kv || (key(idx[j]) == kv && idx[j] > v)) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

// sortInt32 insertion-sorts a small ascending index list.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// boxEmptyFor is Box.EmptyFor with the solver's cached kind table.
func boxEmptyFor(kinds []domain.Kind, b domain.Box) bool {
	for d := range b {
		if emptyIntervalFor(b[d].Lo, b[d].Hi, kinds[d]) {
			return true
		}
	}
	return false
}
