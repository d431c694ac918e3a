// Package summary maintains cheap, sound per-constraint summaries of a
// predicate-constraint store and answers aggregate bounds from them without
// touching the LP/MILP solver.
//
// The summary tier trades tightness for latency: every answer is a sound
// outer interval — it contains the interval the exact cell-decomposition
// engine would produce for the same query at the same epoch — but it is
// computed from per-constraint corner bounds alone, in O(n·dims) for a
// region-restricted query and O(dims) for a whole-domain query, where n is
// the number of live constraints. The exact engine escalates to the solver
// only when the loose interval exceeds the caller's width budget (see
// core.TierSpec).
//
// Maintenance follows the modular-update model of linear sketching: the
// store consumes the same Add/Remove/Replace mutation stream the WAL does,
// updating per-entry summaries (predicate box, value-row box, cardinality
// bounds, lattice-groundedness bits) and a whole-store coefficient sketch
// (per-attribute signed sums of value·cardinality corners, value hulls, and
// non-emptiness witnesses). The disjointness certificate that makes lower
// cardinality bounds and non-emptiness claims sound is not kept here: it is
// the core store's pairwise-overlap count, passed in by the caller on each
// Eval. Sketch sums are recomputed in entry order on every
// mutation rather than adjusted in place: float addition does not have
// exact inverses, and a drifting sum could dip below the true bound and
// break soundness. The rebuild is O(n·dims), amortized into the write path,
// which is what buys the O(dims) read.
//
// Soundness fine print: intervals produced here are outer bounds for the
// exact engine's *default* configuration (no early-stopped decomposition).
// Early stopping coarsens cells beyond the per-constraint boxes this
// package sees, so core refuses to answer from summaries when it is
// enabled. Sum endpoints are additionally widened by one ulp per
// contributing term so that a different-but-equivalent accumulation order
// on the exact path can never land an ulp outside the summary interval.
package summary

import (
	"math"
	"sync"
	"sync/atomic"

	"pcbound/internal/domain"
)

// Agg enumerates the aggregates the summary tier can bound. The values
// deliberately mirror core.Agg but are redeclared here so the package
// depends only on domain.
type Agg int

const (
	Count Agg = iota
	Sum
	Avg
	Min
	Max
)

// Constraint is the summary tier's view of one predicate constraint: the
// predicate box ψ, the per-attribute value row ψ∩ν (the corner bounds every
// evaluation reads), and the cardinality interval [KLo, KHi].
type Constraint struct {
	Pred domain.Box
	Row  domain.Box
	KLo  float64
	KHi  float64
}

// entry is a live constraint plus its precomputed lattice bits.
type entry struct {
	c Constraint
	// predEmpty: ψ contains no point of the schema lattice. Such entries
	// produce no cells on any exact path and are skipped everywhere.
	predEmpty bool
	// grounded: ψ∩domain contains a lattice point. Only grounded entries
	// have their KLo enforced by the exact general path (ungrounded ones
	// never activate a cell there), so only they may contribute to lower
	// cardinality bounds.
	grounded bool
}

// sketch is the whole-store coefficient sketch serving whole-domain queries
// in O(dims). Rebuilt, not adjusted, on every mutation — see the package
// comment for why.
type sketch struct {
	khiTotal    float64 // Σ KHi over non-predEmpty entries
	kloGrounded float64 // Σ KLo over grounded entries with KLo > 0
	sumTerms    int     // entries contributing to posHi/negLo (ulp widening count)

	// Per-attribute, over non-predEmpty entries with KHi > 0 and a
	// plainly non-empty value row on that attribute:
	posHi []float64 // Σ max(0, Row[a].Hi)·KHi — SUM upper corner
	negLo []float64 // Σ min(0, Row[a].Lo)·KHi — SUM lower corner

	// Per-attribute value hulls over non-predEmpty entries with KHi ≥ 1
	// and a plainly non-empty value row on that attribute (the entries
	// that can yield a usable cell for AVG/MIN/MAX). Empty hull ⇒
	// hullLo=+Inf, hullHi=-Inf, matching the exact engine's empty range.
	hullLo []float64
	hullHi []float64

	// witness[a]: some grounded entry with KLo > 0, KHi ≥ 1 and a plainly
	// non-empty value row on a guarantees at least one row exists — the
	// MaybeEmpty=false certificate for whole-domain AVG/MIN/MAX (valid
	// only while the store is pairwise disjoint).
	witness []bool
}

// Result is one summary answer. Lo > Hi encodes the empty range (+Inf,
// -Inf), exactly as the exact engine encodes it.
type Result struct {
	Lo, Hi     float64
	MaybeEmpty bool
	// Entries is the number of live constraints consulted, the summary
	// tier's analogue of Range.Cells.
	Entries int
}

// Stats is a point-in-time snapshot of the store's state and counters.
type Stats struct {
	Entries     int
	Epoch       uint64
	Mutations   uint64
	Evals       int64
	SketchEvals int64
}

// Store holds the live summaries. It is safe for concurrent use; reads take
// a read lock only.
type Store struct {
	schema *domain.Schema
	full   domain.Box

	mu        sync.RWMutex
	ids       []uint64 // guarded by mu; aligned with entries, insertion order
	entries   []entry  // guarded by mu
	epoch     uint64   // guarded by mu; the store epoch these summaries reflect
	mutations uint64   // guarded by mu; mutations applied since Reset
	sk        sketch   // guarded by mu

	evals       atomic.Int64 // total Eval calls that answered
	sketchEvals atomic.Int64 // Eval calls answered from the O(dims) sketch
}

// New creates an empty summary store over the schema.
func New(schema *domain.Schema) *Store {
	return &Store{schema: schema, full: schema.FullBox()}
}

// Schema returns the store's schema.
func (s *Store) Schema() *domain.Schema { return s.schema }

// Reset replaces the store's contents wholesale with the given constraints
// (aligned with ids, in store order) at the given epoch.
func (s *Store) Reset(ids []uint64, cs []Constraint, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids = append([]uint64(nil), ids...)
	s.entries = make([]entry, len(cs))
	for i, c := range cs {
		s.entries[i] = s.newEntry(c)
	}
	s.epoch = epoch
	s.mutations = 0
	s.rebuildSketchLocked()
}

// Add appends constraints (aligned with ids) and advances the summary epoch
// in one atomic step, mirroring a MutAdd record.
func (s *Store) Add(epoch uint64, ids []uint64, cs []Constraint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, c := range cs {
		s.ids = append(s.ids, ids[k])
		s.entries = append(s.entries, s.newEntry(c))
	}
	s.commitLocked(epoch)
}

// Remove drops the constraint with the given id and advances the summary
// epoch, mirroring a MutRemove record. It reports whether the id was live.
func (s *Store) Remove(epoch uint64, id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.indexLocked(id)
	if i < 0 {
		return false
	}
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	s.commitLocked(epoch)
	return true
}

// Replace swaps the constraint under id in place (preserving store order)
// and advances the summary epoch, mirroring a MutReplace record.
func (s *Store) Replace(epoch uint64, id uint64, c Constraint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.indexLocked(id)
	if i < 0 {
		return false
	}
	s.entries[i] = s.newEntry(c)
	s.commitLocked(epoch)
	return true
}

// Epoch returns the store epoch the summaries currently reflect.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's state and counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Entries:     len(s.entries),
		Epoch:       s.epoch,
		Mutations:   s.mutations,
		Evals:       s.evals.Load(),
		SketchEvals: s.sketchEvals.Load(),
	}
}

func (s *Store) commitLocked(epoch uint64) {
	s.epoch = epoch
	s.mutations++
	s.rebuildSketchLocked()
}

func (s *Store) indexLocked(id uint64) int {
	for i, v := range s.ids {
		if v == id {
			return i
		}
	}
	return -1
}

func (s *Store) newEntry(c Constraint) entry {
	return entry{
		c:         c,
		predEmpty: c.Pred.EmptyFor(s.schema),
		grounded:  !c.Pred.Intersect(s.full).EmptyFor(s.schema),
	}
}

// rebuildSketchLocked recomputes the whole-store sketch from the entries,
// in entry order (deterministic accumulation).
func (s *Store) rebuildSketchLocked() {
	dims := s.schema.Len()
	sk := sketch{
		posHi:   make([]float64, dims),
		negLo:   make([]float64, dims),
		hullLo:  make([]float64, dims),
		hullHi:  make([]float64, dims),
		witness: make([]bool, dims),
	}
	for a := 0; a < dims; a++ {
		sk.hullLo[a] = math.Inf(1)
		sk.hullHi[a] = math.Inf(-1)
	}
	for i := range s.entries {
		e := &s.entries[i]
		if e.predEmpty {
			continue
		}
		c := e.c
		sk.khiTotal += c.KHi
		if e.grounded && c.KLo > 0 {
			sk.kloGrounded += c.KLo
		}
		if c.KHi <= 0 {
			continue
		}
		sk.sumTerms++
		for a := 0; a < dims; a++ {
			row := c.Row[a]
			if row.Empty() {
				continue
			}
			if row.Hi > 0 {
				sk.posHi[a] += row.Hi * c.KHi
			}
			if row.Lo < 0 {
				sk.negLo[a] += row.Lo * c.KHi
			}
			if c.KHi >= 1 {
				sk.hullLo[a] = math.Min(sk.hullLo[a], row.Lo)
				sk.hullHi[a] = math.Max(sk.hullHi[a], row.Hi)
				if e.grounded && c.KLo > 0 {
					sk.witness[a] = true
				}
			}
		}
	}
	s.sk = sk
}

// Eval bounds the aggregate over the region where (nil means the whole
// domain) from summaries alone. attr indexes the aggregated attribute and
// is ignored for Count. The answer is only valid for the given store epoch:
// Eval reports ok=false when the summaries have moved past (or not reached)
// it, and the caller must escalate to the exact path. disjoint is the
// certificate that the constraint predicates at that epoch are pairwise
// non-overlapping on the schema lattice; only then does the answer claim
// lower cardinality bounds or non-emptiness.
func (s *Store) Eval(agg Agg, attr int, where domain.Box, epoch uint64, disjoint bool) (Result, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if epoch != s.epoch {
		return Result{}, false
	}
	switch agg {
	case Count, Sum, Avg, Min, Max:
	default:
		return Result{}, false
	}
	if agg != Count && (attr < 0 || attr >= s.schema.Len()) {
		return Result{}, false
	}
	var res Result
	if where == nil {
		res = s.evalSketchLocked(agg, attr, disjoint)
		s.sketchEvals.Add(1)
	} else {
		var ok bool
		res, ok = s.evalScanLocked(agg, attr, where, disjoint)
		if !ok {
			return Result{}, false
		}
	}
	s.evals.Add(1)
	return res, true
}

// evalSketchLocked answers a whole-domain query from the precomputed
// sketch in O(dims).
func (s *Store) evalSketchLocked(agg Agg, attr int, disjoint bool) Result {
	res := Result{Entries: len(s.entries)}
	switch agg {
	case Count:
		res.Hi = s.sk.khiTotal
		if disjoint {
			res.Lo = s.sk.kloGrounded
		}
	case Sum:
		res.Lo = inflateDown(s.sk.negLo[attr], s.sk.sumTerms+2)
		res.Hi = inflateUp(s.sk.posHi[attr], s.sk.sumTerms+2)
	case Avg, Min, Max:
		res.Lo = s.sk.hullLo[attr]
		res.Hi = s.sk.hullHi[attr]
		res.MaybeEmpty = !(disjoint && s.sk.witness[attr])
	}
	return res
}

// evalScanLocked answers a region-restricted query with one pass over the
// entries, O(n·dims).
func (s *Store) evalScanLocked(agg Agg, attr int, where domain.Box, disjoint bool) (Result, bool) {
	if len(where) != s.schema.Len() {
		return Result{}, false
	}
	res := Result{}
	switch agg {
	case Avg, Min, Max:
		res.Lo = math.Inf(1)
		res.Hi = math.Inf(-1)
		res.MaybeEmpty = true
	}
	sumTerms := 0
	for i := range s.entries {
		e := &s.entries[i]
		if e.predEmpty {
			continue
		}
		c := e.c
		// Overlap test on the schema lattice, dimension by dimension —
		// entries whose predicate misses the region contribute nothing on
		// any exact path.
		overlaps := true
		for a := 0; a < len(where); a++ {
			if c.Pred[a].Intersect(where[a]).EmptyFor(s.schema.Attr(a).Kind) {
				overlaps = false
				break
			}
		}
		if !overlaps {
			continue
		}
		res.Entries++
		switch agg {
		case Count:
			res.Hi += c.KHi
			if disjoint && c.KLo > 0 && e.grounded && where.ContainsBox(c.Pred) {
				res.Lo += c.KLo
			}
		case Sum:
			if c.KHi <= 0 {
				continue
			}
			// The value corner of this entry inside the region: rows it
			// contributes to the region carry attr values in Row[attr]
			// clipped by the region, exactly the interval the fast
			// disjoint path assigns its cell.
			v := c.Row[attr].Intersect(where[attr])
			if v.Empty() {
				continue
			}
			sumTerms++
			if v.Hi > 0 {
				res.Hi += v.Hi * c.KHi
			}
			if v.Lo < 0 {
				res.Lo += v.Lo * c.KHi
			}
		case Avg, Min, Max:
			if c.KHi < 1 {
				continue
			}
			v := c.Row[attr].Intersect(where[attr])
			if v.Empty() {
				continue
			}
			res.Lo = math.Min(res.Lo, v.Lo)
			res.Hi = math.Max(res.Hi, v.Hi)
			if disjoint && c.KLo > 0 && e.grounded && where.ContainsBox(c.Pred) {
				res.MaybeEmpty = false
			}
		}
	}
	if agg == Sum {
		res.Lo = inflateDown(res.Lo, sumTerms+2)
		res.Hi = inflateUp(res.Hi, sumTerms+2)
	}
	return res, true
}

// inflateUp moves x a few ulps toward +Inf — outward rounding insurance for
// accumulated sums (see the package comment).
func inflateUp(x float64, steps int) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	for k := 0; k < steps; k++ {
		x = math.Nextafter(x, math.Inf(1))
	}
	return x
}

// inflateDown moves x a few ulps toward -Inf.
func inflateDown(x float64, steps int) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	for k := 0; k < steps; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}
