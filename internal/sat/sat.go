// Package sat decides satisfiability of cell expressions arising in
// predicate-constraint cell decomposition. It replaces the Z3 SMT solver the
// paper uses (Section 4.1).
//
// The paper restricts predicates to conjunctions of ranges and inequalities
// (Section 3.1), so every predicate is an axis-aligned box and every cell
// expression has the form
//
//	B ∧ ¬N₁ ∧ … ∧ ¬Nₖ
//
// where B is the intersection of the non-negated predicates and the Nᵢ are
// negated predicate boxes. Such an expression is satisfiable iff the region
// B \ (N₁ ∪ … ∪ Nₖ) contains a point of the schema lattice (continuous
// attributes: any real; integral attributes: an integer). The solver decides
// this exactly by box subtraction: it carves B against each overlapping Nᵢ
// into at most 2·dims disjoint remainder boxes and continues into each,
// exiting early on the first witness point found. This is a complete
// decision procedure for the fragment; unlike a generic SMT encoding it is
// allocation-free on the hot path (see arena.go) and typically runs in
// microseconds.
package sat

import (
	"math"
	"sync"
	"sync/atomic"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// Stats counts solver work, mirroring the "number of evaluated cells"
// metric of the paper's Figure 7.
type Stats struct {
	// Checks is the number of top-level satisfiability queries.
	Checks int64
	// Nodes is the number of box-subtraction search nodes visited.
	Nodes int64
}

// Solver decides satisfiability of conjunction/negation cell expressions
// over a fixed schema. Solvers are safe for concurrent use.
type Solver struct {
	schema *domain.Schema
	// kinds caches the per-dimension attribute kinds so lattice-aware
	// emptiness/overlap tests skip the Attr struct copy on every probe.
	kinds       []domain.Kind
	checks      atomic.Int64
	nodes       atomic.Int64
	scratchPool sync.Pool // of *scratch
}

// New returns a solver for the schema.
func New(s *domain.Schema) *Solver {
	kinds := make([]domain.Kind, s.Len())
	for i := range kinds {
		kinds[i] = s.Attr(i).Kind
	}
	return &Solver{schema: s, kinds: kinds}
}

// Clone returns a fresh solver over the same schema with zeroed counters.
// Batch engines hand each worker its own clone so per-worker statistics stay
// attributable, then fold them back with AddStats.
func (s *Solver) Clone() *Solver { return New(s.schema) }

// AddStats folds another solver's counters into this one.
func (s *Solver) AddStats(st Stats) {
	s.checks.Add(st.Checks)
	s.nodes.Add(st.Nodes)
}

// Schema returns the solver's schema.
func (s *Solver) Schema() *domain.Schema { return s.schema }

// Stats returns a snapshot of the solver's counters.
func (s *Solver) Stats() Stats {
	return Stats{Checks: s.checks.Load(), Nodes: s.nodes.Load()}
}

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() {
	s.checks.Store(0)
	s.nodes.Store(0)
}

// Sat reports whether the conjunction of the pos predicates and the
// negations of the neg predicates is satisfiable over the schema lattice.
func (s *Solver) Sat(pos, neg []*predicate.P) bool {
	_, ok := s.Witness(pos, neg)
	return ok
}

// Witness returns a row satisfying all pos predicates and none of the neg
// predicates, and whether one exists.
func (s *Solver) Witness(pos, neg []*predicate.P) (domain.Row, bool) {
	s.checks.Add(1)
	b := s.schema.FullBox()
	for _, p := range pos {
		b = b.Intersect(p.Box())
	}
	boxes := make([]domain.Box, 0, len(neg))
	for _, n := range neg {
		boxes = append(boxes, n.Box())
	}
	return s.uncovered(b, boxes)
}

// SatBoxes is Sat over raw boxes.
func (s *Solver) SatBoxes(b domain.Box, neg []domain.Box) bool {
	s.checks.Add(1)
	_, ok := s.uncovered(b, neg)
	return ok
}

// uncovered searches for a lattice point of b outside every box in neg.
func (s *Solver) uncovered(b domain.Box, neg []domain.Box) (domain.Row, bool) {
	sc := s.getScratch()
	sc.mode = modeWitness
	found := s.search(sc, b, neg)
	w := sc.witness
	sc.witness = nil
	s.nodes.Add(sc.nodes)
	s.putScratch(sc)
	return w, found
}

// pred returns the largest lattice value strictly below v.
func pred(v float64, k domain.Kind) float64 {
	if k == domain.Integral {
		return math.Ceil(v) - 1
	}
	return math.Nextafter(v, math.Inf(-1))
}

// succ returns the smallest lattice value strictly above v.
func succ(v float64, k domain.Kind) float64 {
	if k == domain.Integral {
		return math.Floor(v) + 1
	}
	return math.Nextafter(v, math.Inf(1))
}
