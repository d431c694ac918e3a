package sat

import "pcbound/internal/domain"

// RemainderBoxes returns a disjoint box decomposition of b \ (n₁ ∪ … ∪ nₖ),
// restricted to boxes that are non-empty over the schema lattice. The union
// of the returned boxes contains exactly the lattice points of b outside all
// negative boxes.
//
// Cell decomposition uses this to compute exact per-cell projections: the
// tightest value interval an attribute can take inside a cell is the hull of
// the attribute's intervals across the cell's remainder boxes.
func (s *Solver) RemainderBoxes(b domain.Box, neg []domain.Box) []domain.Box {
	s.checks.Add(1)
	sc := s.getScratch()
	sc.mode = modeCollect
	sc.collected = nil
	s.search(sc, b, neg)
	out := sc.collected
	sc.collected = nil
	s.nodes.Add(sc.nodes)
	s.putScratch(sc)
	return out
}

// Projection returns the tightest interval attribute dim can take over
// b \ ∪neg, and whether the region is non-empty.
func (s *Solver) Projection(b domain.Box, neg []domain.Box, dim int) (domain.Interval, bool) {
	boxes := s.RemainderBoxes(b, neg)
	if len(boxes) == 0 {
		return domain.Interval{Lo: 1, Hi: 0}, false
	}
	iv := boxes[0][dim]
	for _, rb := range boxes[1:] {
		iv = iv.Hull(rb[dim])
	}
	return iv, true
}
