package sat

import (
	"math/rand"
	"testing"

	"pcbound/internal/domain"
)

func incSchema() *domain.Schema {
	return domain.NewSchema(
		domain.Attr{Name: "utc", Kind: domain.Integral, Domain: domain.NewInterval(0, 20)},
		domain.Attr{Name: "price", Kind: domain.Continuous, Domain: domain.NewInterval(0, 100)},
	)
}

// randBox draws a random sub-box of the schema domain.
func randBox(rng *rand.Rand, s *domain.Schema) domain.Box {
	b := s.FullBox()
	for d := range b {
		lo := b[d].Lo + rng.Float64()*b[d].Width()
		hi := lo + rng.Float64()*(b[d].Hi-lo)
		if s.Attr(d).Kind == domain.Integral {
			lo = float64(int(lo))
			hi = float64(int(hi))
		}
		b[d] = domain.NewInterval(lo, hi)
	}
	return b
}

// checkInvariants asserts the tracker's remainder is disjoint from every
// registered box, agrees with the solver on coverage, and that sampled
// lattice points are classified consistently (covered by a box iff not in
// the remainder).
func checkInvariants(t *testing.T, inc *Incremental, solver *Solver, base domain.Box, boxes map[uint64]domain.Box, rng *rand.Rand) {
	t.Helper()
	schema := solver.Schema()
	all := make([]domain.Box, 0, len(boxes))
	for _, b := range boxes {
		all = append(all, b)
	}
	wantUncovered := solver.SatBoxes(base, all)
	if got := !inc.Covered(); got != wantUncovered {
		t.Fatalf("coverage diverged: incremental uncovered=%v, reference=%v (boxes=%d, rem=%d)",
			got, wantUncovered, len(boxes), inc.RemainderCount())
	}
	if w, ok := inc.Witness(); ok {
		if !base.Contains(w) {
			t.Fatalf("witness %v outside base %v", w, base)
		}
		for id, b := range boxes {
			if b.Contains(w) {
				t.Fatalf("witness %v inside registered box %d %v", w, id, b)
			}
		}
	} else if wantUncovered {
		t.Fatal("reference says uncovered but tracker has no witness")
	}
	// Remainder boxes must not overlap any registered box on the lattice.
	for _, r := range inc.rem {
		for id, b := range boxes {
			if !r.Intersect(b).EmptyFor(schema) {
				t.Fatalf("remainder box %v overlaps registered box %d %v", r, id, b)
			}
		}
	}
	// Sampled lattice points: in remainder ⟺ outside all boxes.
	for i := 0; i < 32; i++ {
		p := make(domain.Row, schema.Len())
		for d := 0; d < schema.Len(); d++ {
			iv := base[d]
			v := iv.Lo + rng.Float64()*iv.Width()
			if schema.Attr(d).Kind == domain.Integral {
				v = float64(int(v))
			}
			p[d] = v
		}
		if !base.Contains(p) {
			continue
		}
		inBox := false
		for _, b := range boxes {
			if b.Contains(p) {
				inBox = true
				break
			}
		}
		inRem := false
		for _, r := range inc.rem {
			if r.Contains(p) {
				inRem = true
				break
			}
		}
		if inBox == inRem {
			t.Fatalf("point %v: inBox=%v inRem=%v (must be complementary)", p, inBox, inRem)
		}
	}
}

// TestIncrementalDifferential drives a random add/remove/replace stream
// through the delta path and cross-checks every step against (a) the
// solver's from-scratch coverage answer and (b) a second tracker rebuilt
// from scratch after every mutation (the reference path).
func TestIncrementalDifferential(t *testing.T) {
	schema := incSchema()
	solver := New(schema)
	base := schema.FullBox()
	rng := rand.New(rand.NewSource(42))

	delta := NewIncremental(solver, base)
	ref := NewIncremental(solver, base)

	boxes := make(map[uint64]domain.Box)
	var ids []uint64
	nextID := uint64(0)

	for step := 0; step < 200; step++ {
		op := rng.Intn(3)
		switch {
		case op == 0 || len(ids) == 0: // add
			nextID++
			b := randBox(rng, schema)
			boxes[nextID] = b
			ids = append(ids, nextID)
			delta.Add(nextID, b)
			ref.Add(nextID, b)
		case op == 1: // remove
			i := rng.Intn(len(ids))
			id := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			delete(boxes, id)
			if !delta.Remove(id) || !ref.Remove(id) {
				t.Fatalf("step %d: Remove(%d) reported absent", step, id)
			}
		default: // replace
			id := ids[rng.Intn(len(ids))]
			b := randBox(rng, schema)
			boxes[id] = b
			if !delta.Replace(id, b) || !ref.Replace(id, b) {
				t.Fatalf("step %d: Replace(%d) reported absent", step, id)
			}
		}
		ref.Rebuild()
		if delta.Covered() != ref.Covered() {
			t.Fatalf("step %d: delta covered=%v, rebuilt covered=%v",
				step, delta.Covered(), ref.Covered())
		}
		if step%10 == 0 {
			checkInvariants(t, delta, solver, base, boxes, rng)
		}
	}
	if delta.Deltas == 0 {
		t.Error("delta tracker applied no deltas (everything rebuilt?)")
	}
	if ref.Rebuilds == 0 {
		t.Error("reference tracker performed no rebuilds")
	}
}

// TestIncrementalCoverageTransitions walks a deterministic scenario through
// full coverage and back: covering the domain box by box, then retracting
// one and re-tightening it.
func TestIncrementalCoverageTransitions(t *testing.T) {
	schema := incSchema()
	solver := New(schema)
	inc := NewIncremental(solver, schema.FullBox())

	if inc.Covered() {
		t.Fatal("empty tracker reports covered")
	}
	half := schema.FullBox()
	half[0] = domain.NewInterval(0, 10)
	inc.Add(1, half)
	if inc.Covered() {
		t.Fatal("half-covered domain reports covered")
	}
	w, ok := inc.Witness()
	if !ok || half.Contains(w) {
		t.Fatalf("witness %v (ok=%v) should be outside the first half", w, ok)
	}
	rest := schema.FullBox()
	rest[0] = domain.NewInterval(10, 20)
	inc.Add(2, rest)
	if !inc.Covered() {
		t.Fatal("fully covered domain reports uncovered")
	}
	if _, ok := inc.Witness(); ok {
		t.Fatal("covered tracker returned a witness")
	}
	// Retract the second half: uncovered again.
	if !inc.Remove(2) {
		t.Fatal("Remove(2) reported absent")
	}
	if inc.Covered() {
		t.Fatal("covered after retraction")
	}
	// Replace the first half with the whole domain: covered via one box.
	if !inc.Replace(1, schema.FullBox()) {
		t.Fatal("Replace(1) reported absent")
	}
	if !inc.Covered() {
		t.Fatal("whole-domain box does not cover")
	}
	if inc.Remove(99) {
		t.Fatal("Remove of unknown id reported present")
	}
}

// TestIncrementalSubBaseRegion pins the rem = base \ ∪boxes invariant when
// base is a strict sub-box of the domain and registered boxes extend beyond
// it: removing such a box must only return the part inside base to the
// remainder.
func TestIncrementalSubBaseRegion(t *testing.T) {
	schema := incSchema()
	solver := New(schema)
	base := schema.FullBox()
	base[0] = domain.NewInterval(5, 10) // strict sub-box of utc's [0, 20]
	inc := NewIncremental(solver, base)

	inc.Add(1, base.Clone()) // covers the whole base exactly
	if !inc.Covered() {
		t.Fatal("base-sized box does not cover base")
	}
	// A box far outside base, and one straddling its boundary.
	outside := schema.FullBox()
	outside[0] = domain.NewInterval(15, 20)
	inc.Add(2, outside)
	straddle := schema.FullBox()
	straddle[0] = domain.NewInterval(8, 18)
	inc.Add(3, straddle)
	if !inc.Covered() {
		t.Fatal("extra boxes cannot uncover a covered base")
	}
	// Removing them frees nothing inside base: box 1 still covers it all.
	inc.Remove(2)
	if !inc.Covered() {
		t.Fatalf("removing a box outside base uncovered it (rem=%d)", inc.RemainderCount())
	}
	inc.Remove(3)
	if !inc.Covered() {
		t.Fatalf("removing a straddling box uncovered a still-covered base (rem=%d)", inc.RemainderCount())
	}
	// And once the covering box goes, the remainder is exactly base again,
	// never anything outside it.
	inc.Remove(1)
	if inc.Covered() {
		t.Fatal("empty tracker reports covered")
	}
	w, ok := inc.Witness()
	if !ok || !base.Contains(w) {
		t.Fatalf("witness %v (ok=%v) outside base %v", w, ok, base)
	}
}

// TestIncrementalAddOnlyCompaction checks that a pure Add stream (the
// streaming-audit pattern: constraints only arrive) also triggers
// compaction, rather than fragmenting the remainder without bound.
func TestIncrementalAddOnlyCompaction(t *testing.T) {
	schema := incSchema()
	solver := New(schema)
	inc := NewIncremental(solver, schema.FullBox())
	rng := rand.New(rand.NewSource(11))
	covered := false
	for i := 0; i < 200 && !covered; i++ {
		// Thin stripes maximize carving; never cover the domain entirely.
		b := schema.FullBox()
		lo := float64(rng.Intn(20))
		b[0] = domain.NewInterval(lo, lo)
		b[1] = domain.NewInterval(rng.Float64()*40, 50+rng.Float64()*49)
		inc.Add(uint64(i+1), b)
		covered = inc.Covered()
	}
	if covered {
		t.Fatal("stripe stream unexpectedly covered the domain")
	}
	if inc.Rebuilds == 0 && inc.RemainderCount() > 8*inc.Len()+64 {
		t.Fatalf("add-only stream fragmented to %d boxes (%d registered) without ever compacting",
			inc.RemainderCount(), inc.Len())
	}
}

// TestIncrementalCompaction forces heavy fragmentation and checks the
// tracker compacts without changing its answers.
func TestIncrementalCompaction(t *testing.T) {
	schema := incSchema()
	solver := New(schema)
	inc := NewIncremental(solver, schema.FullBox())
	rng := rand.New(rand.NewSource(7))

	// Add/remove thin stripes repeatedly to fragment the remainder.
	for round := 0; round < 30; round++ {
		id := uint64(round + 1)
		b := schema.FullBox()
		lo := float64(rng.Intn(20))
		b[0] = domain.NewInterval(lo, lo+1)
		b[1] = domain.NewInterval(rng.Float64()*50, 50+rng.Float64()*50)
		inc.Add(id, b)
		if round%2 == 0 {
			inc.Remove(id)
		}
	}
	if inc.Covered() {
		t.Fatal("stripes should not cover the domain")
	}
	if inc.Rebuilds == 0 {
		t.Log("no compaction triggered (acceptable, but fragmentation stayed low)")
	}
	// Answer must match a from-scratch rebuild.
	before := inc.Covered()
	inc.Rebuild()
	if inc.Covered() != before {
		t.Fatal("Rebuild changed the coverage answer")
	}
}
