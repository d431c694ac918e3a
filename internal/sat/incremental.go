package sat

import (
	"pcbound/internal/domain"
)

// Incremental maintains the uncovered remainder of a base region under a
// mutable set of predicate boxes, applying adds and removes as deltas
// instead of re-solving coverage from scratch.
//
// Invariant: rem is a list of pairwise-disjoint boxes, each non-empty on the
// schema lattice, whose union is exactly the lattice points of base outside
// every registered box (base \ ∪boxes). The deltas preserve it:
//
//   - Add(b): every remainder box overlapping b is carved against b
//     (rem' = rem \ b). Boxes already disjoint from b pass through
//     untouched, so the cost scales with the overlap, not the set size.
//   - Remove(id): the retired box is carved against the remaining boxes and
//     the pieces join the remainder (rem' = rem ∪ (b \ ∪others)). The
//     pieces lie inside b while every existing remainder box lies outside
//     all boxes including b, so disjointness is preserved.
//
// Repeated mutation can fragment the remainder, so the tracker compacts
// (rebuilds from scratch) once the fragment count outgrows the box count.
// The from-scratch Rebuild is also the differential-test oracle for the
// delta path: a tracker rebuilt after every mutation must always agree with
// the delta tracker on coverage.
//
// The constraint store (internal/core) uses one Incremental to answer
// closure checks (Definition 3.2) across its mutation stream.
//
// An Incremental is NOT safe for concurrent use; callers serialize access
// (the constraint store guards its tracker with a dedicated closure mutex —
// see core.Store.closureMu — so closure SAT work never blocks writers).
type Incremental struct {
	solver *Solver
	base   domain.Box
	boxes  map[uint64]domain.Box
	// order keeps registered ids in insertion order so rebuilds and removals
	// subtract boxes deterministically (map iteration order is randomized).
	order []uint64
	rem   []domain.Box

	// Deltas and Rebuilds count mutations applied incrementally vs full
	// recomputations (compactions and explicit Rebuild calls).
	Deltas, Rebuilds int64
}

// NewIncremental returns a tracker for the given base region with no boxes
// registered: the remainder starts as the whole base.
func NewIncremental(solver *Solver, base domain.Box) *Incremental {
	inc := &Incremental{
		solver: solver,
		base:   base.Clone(),
		boxes:  make(map[uint64]domain.Box),
	}
	inc.rem = solver.RemainderBoxes(inc.base, nil)
	return inc
}

// Len returns the number of registered boxes.
func (inc *Incremental) Len() int { return len(inc.boxes) }

// orderedBoxes returns the registered boxes in insertion order, excluding
// the given id (0 — a reserved, never-registered id — excludes nothing).
func (inc *Incremental) orderedBoxes(excludeID uint64) []domain.Box {
	out := make([]domain.Box, 0, len(inc.boxes))
	for _, id := range inc.order {
		if id == excludeID {
			continue
		}
		out = append(out, inc.boxes[id])
	}
	return out
}

// Add registers a box under the given id (which must be non-zero and not in
// use — 0 is reserved as the internal "no exclusion" sentinel) and subtracts
// it from the remainder.
func (inc *Incremental) Add(id uint64, box domain.Box) {
	if id == 0 {
		panic("sat: Incremental box id 0 is reserved")
	}
	if _, dup := inc.boxes[id]; dup {
		panic("sat: Incremental.Add with duplicate id")
	}
	inc.boxes[id] = box.Clone()
	inc.order = append(inc.order, id)
	inc.Deltas++
	inc.rem = inc.carve(box)
	inc.maybeCompact()
}

// carve returns the remainder with box subtracted (rem \ box): fragments
// disjoint from box pass through untouched, overlapping ones are split by
// box subtraction. Shared by the Add and Replace delta paths.
func (inc *Incremental) carve(box domain.Box) []domain.Box {
	schema := inc.solver.Schema()
	out := inc.rem[:0:0]
	for _, r := range inc.rem {
		if r.Intersect(box).EmptyFor(schema) {
			out = append(out, r)
			continue
		}
		out = append(out, inc.solver.RemainderBoxes(r, []domain.Box{box})...)
	}
	return out
}

// Remove retires the box registered under id and returns whether it was
// present. The freed region (minus the other boxes) rejoins the remainder.
func (inc *Incremental) Remove(id uint64) bool {
	box, ok := inc.boxes[id]
	if !ok {
		return false
	}
	delete(inc.boxes, id)
	for i, got := range inc.order {
		if got == id {
			inc.order = append(inc.order[:i], inc.order[i+1:]...)
			break
		}
	}
	inc.Deltas++
	// Clip the freed box to the base region first: registered boxes may
	// extend beyond base, but only the part inside it belongs to the
	// remainder (rem = base \ ∪boxes).
	pieces := inc.solver.RemainderBoxes(box.Intersect(inc.base), inc.orderedBoxes(0))
	inc.rem = append(inc.rem, pieces...)
	inc.maybeCompact()
	return true
}

// Replace swaps the box registered under id for a new one in place (the
// insertion order is preserved), as one delta:
//
//	rem' = (rem \ new) ∪ ((old ∩ base) \ ∪current)
//
// where ∪current already includes the new box. The first term keeps every
// point still outside all boxes; the second returns the part of the old box
// freed by the swap. For a tighten-in-place (new ⊆ old) the first term is a
// no-op, since rem was already disjoint from old.
func (inc *Incremental) Replace(id uint64, box domain.Box) bool {
	old, ok := inc.boxes[id]
	if !ok {
		return false
	}
	inc.boxes[id] = box.Clone()
	inc.Deltas++
	out := inc.carve(box)
	pieces := inc.solver.RemainderBoxes(old.Intersect(inc.base), inc.orderedBoxes(0))
	inc.rem = append(out, pieces...)
	inc.maybeCompact()
	return true
}

// maybeCompact rebuilds the remainder when fragmentation outgrows the
// registered set, keeping Covered/Witness costs bounded.
func (inc *Incremental) maybeCompact() {
	if len(inc.rem) > 64 && len(inc.rem) > 8*len(inc.boxes) {
		inc.Rebuild()
	}
}

// Rebuild recomputes the remainder from scratch. Semantically a no-op; it
// defragments the remainder decomposition.
func (inc *Incremental) Rebuild() {
	inc.Rebuilds++
	inc.rem = inc.solver.RemainderBoxes(inc.base, inc.orderedBoxes(0))
}

// Covered reports whether the registered boxes cover every lattice point of
// the base region (the constraint-closure condition).
func (inc *Incremental) Covered() bool { return len(inc.rem) == 0 }

// Witness returns a lattice point of the base region outside every
// registered box, if one exists. The choice is deterministic for a given
// remainder decomposition (the lexicographically smallest fragment's
// representative); trackers that reached the same region through different
// mutation histories may fragment it differently and return different —
// equally valid — witnesses.
func (inc *Incremental) Witness() (domain.Row, bool) {
	if len(inc.rem) == 0 {
		return nil, false
	}
	best := 0
	for i := 1; i < len(inc.rem); i++ {
		if lessBox(inc.rem[i], inc.rem[best]) {
			best = i
		}
	}
	return inc.rem[best].Representative(inc.solver.Schema()), true
}

// RemainderCount returns the current number of remainder fragments
// (diagnostic; 0 iff covered).
func (inc *Incremental) RemainderCount() int { return len(inc.rem) }

// lessBox orders boxes lexicographically by (Lo, Hi) per dimension.
func lessBox(a, b domain.Box) bool {
	for d := range a {
		if a[d].Lo != b[d].Lo {
			return a[d].Lo < b[d].Lo
		}
		if a[d].Hi != b[d].Hi {
			return a[d].Hi < b[d].Hi
		}
	}
	return false
}
