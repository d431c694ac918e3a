package sat

import "pcbound/internal/domain"

// This file preserves the original recursive box-subtraction search as the
// test oracle for the arena engine. The engine in arena.go visits regions in
// exactly the same order, so the two produce bit-identical witnesses,
// remainder decompositions and satisfiability verdicts; the differential
// tests in arena_test.go and boundary_test.go compare them directly.

// uncoveredRec searches for a lattice point of b outside every box in neg.
func (s *Solver) uncoveredRec(b domain.Box, neg []domain.Box) (domain.Row, bool) {
	s.nodes.Add(1)
	if b.EmptyFor(s.schema) {
		return nil, false
	}
	for i, n := range neg {
		inter := b.Intersect(n)
		if inter.EmptyFor(s.schema) {
			continue
		}
		if n.ContainsBox(b) {
			return nil, false
		}
		// Subtract n from b. Sweep the dimensions; at each dimension peel off
		// the parts of the current box lying strictly below / above n's
		// interval, recursing into each remainder. What is left after the
		// sweep is contained in n and therefore covered.
		//
		// Negative boxes with index < i do not overlap b (checked above), so
		// remainders only need to be tested against neg[i+1:].
		rest := neg[i+1:]
		cur := b.Clone()
		for d := range cur {
			kind := s.schema.Attr(d).Kind
			if cur[d].Lo < n[d].Lo {
				piece := cur.Clone()
				piece[d] = domain.Interval{Lo: cur[d].Lo, Hi: pred(n[d].Lo, kind)}
				if w, ok := s.uncoveredRec(piece, rest); ok {
					return w, true
				}
				cur[d].Lo = n[d].Lo
			}
			if cur[d].Hi > n[d].Hi {
				piece := cur.Clone()
				piece[d] = domain.Interval{Lo: succ(n[d].Hi, kind), Hi: cur[d].Hi}
				if w, ok := s.uncoveredRec(piece, rest); ok {
					return w, true
				}
				cur[d].Hi = n[d].Hi
			}
		}
		return nil, false
	}
	// No negative box overlaps b: any representative point is a witness.
	return b.Representative(s.schema), true
}

// remainderRec appends a disjoint box decomposition of b \ ∪neg to out.
func (s *Solver) remainderRec(b domain.Box, neg []domain.Box, out *[]domain.Box) {
	s.nodes.Add(1)
	if b.EmptyFor(s.schema) {
		return
	}
	for i, n := range neg {
		inter := b.Intersect(n)
		if inter.EmptyFor(s.schema) {
			continue
		}
		if n.ContainsBox(b) {
			return
		}
		rest := neg[i+1:]
		cur := b.Clone()
		for d := range cur {
			kind := s.schema.Attr(d).Kind
			if cur[d].Lo < n[d].Lo {
				piece := cur.Clone()
				piece[d] = domain.Interval{Lo: cur[d].Lo, Hi: pred(n[d].Lo, kind)}
				s.remainderRec(piece, rest, out)
				cur[d].Lo = n[d].Lo
			}
			if cur[d].Hi > n[d].Hi {
				piece := cur.Clone()
				piece[d] = domain.Interval{Lo: succ(n[d].Hi, kind), Hi: cur[d].Hi}
				s.remainderRec(piece, rest, out)
				cur[d].Hi = n[d].Hi
			}
		}
		return
	}
	*out = append(*out, b)
}

// remainderBoxesRec is RemainderBoxes over the recursive search.
func (s *Solver) remainderBoxesRec(b domain.Box, neg []domain.Box) []domain.Box {
	var out []domain.Box
	s.remainderRec(b, neg, &out)
	return out
}

// searchImpl is one implementation of the solver's box search over a fresh
// solver: the arena engine, or the recursive oracle when reference is set.
// Boundary tests run every case through both.
type searchImpl struct {
	uncovered func(b domain.Box, neg []domain.Box) (domain.Row, bool)
	remainder func(b domain.Box, neg []domain.Box) []domain.Box
}

func newSearchImpl(schema *domain.Schema, reference bool) searchImpl {
	s := New(schema)
	if reference {
		return searchImpl{uncovered: s.uncoveredRec, remainder: s.remainderBoxesRec}
	}
	return searchImpl{uncovered: s.uncovered, remainder: s.RemainderBoxes}
}

// sat is SatBoxes over the implementation.
func (si searchImpl) sat(b domain.Box, neg []domain.Box) bool {
	_, ok := si.uncovered(b, neg)
	return ok
}
