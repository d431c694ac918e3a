package summary

import (
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/domain"
)

func testSchema() *domain.Schema {
	return domain.NewSchema(
		domain.Attr{Name: "utc", Kind: domain.Integral, Domain: domain.NewInterval(0, 30)},
		domain.Attr{Name: "price", Kind: domain.Continuous, Domain: domain.NewInterval(0, 1000)},
	)
}

// cons builds an in-domain constraint: predicate utc∈[plo,phi] (full price
// range), values price∈[vlo,vhi].
func cons(s *domain.Schema, plo, phi, vlo, vhi, klo, khi float64) Constraint {
	pred := domain.Box{domain.NewInterval(plo, phi), s.Attr(1).Domain}
	values := domain.Box{s.Attr(0).Domain, domain.NewInterval(vlo, vhi)}
	return Constraint{Pred: pred, Row: pred.Intersect(values), KLo: klo, KHi: khi}
}

// pairwiseDisjoint reports whether no two constraints' predicates share a
// schema-lattice point: the certificate Eval takes from its caller.
func pairwiseDisjoint(s *domain.Schema, cs ...Constraint) bool {
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			if !cs[i].Pred.Intersect(cs[j].Pred).EmptyFor(s) {
				return false
			}
		}
	}
	return true
}

// TestSketchMatchesScan: for in-domain constraints, the O(dims) sketch
// answer must be bit-identical to the O(n·dims) scan over the full domain
// box — same terms, same order, same ulp widening.
func TestSketchMatchesScan(t *testing.T) {
	s := testSchema()
	st := New(s)
	rng := rand.New(rand.NewSource(3))
	var ids []uint64
	var cs []Constraint
	for i := 0; i < 20; i++ {
		lo := rng.Float64() * 25
		vlo := rng.Float64() * 80
		ids = append(ids, uint64(i+1))
		cs = append(cs, cons(s, lo, lo+1+rng.Float64()*6, vlo, vlo+rng.Float64()*100, float64(rng.Intn(2)), float64(rng.Intn(6))))
	}
	st.Reset(ids, cs, 5)
	disjoint := pairwiseDisjoint(s, cs...)
	full := s.FullBox()
	for agg := Count; agg <= Max; agg++ {
		sk, ok := st.Eval(agg, 1, nil, 5, disjoint)
		if !ok {
			t.Fatalf("agg %d: sketch eval refused", agg)
		}
		scan, ok := st.Eval(agg, 1, full, 5, disjoint)
		if !ok {
			t.Fatalf("agg %d: scan eval refused", agg)
		}
		if math.Float64bits(sk.Lo) != math.Float64bits(scan.Lo) ||
			math.Float64bits(sk.Hi) != math.Float64bits(scan.Hi) ||
			sk.MaybeEmpty != scan.MaybeEmpty {
			t.Fatalf("agg %d: sketch %+v != full-domain scan %+v", agg, sk, scan)
		}
	}
	stats := st.Stats()
	if stats.SketchEvals != 5 || stats.Evals != 10 {
		t.Fatalf("eval counters off: %+v", stats)
	}
}

// TestEpochGate: an Eval against any epoch other than the store's own must
// refuse rather than serve summaries for a different constraint multiset.
func TestEpochGate(t *testing.T) {
	s := testSchema()
	st := New(s)
	st.Reset([]uint64{1}, []Constraint{cons(s, 0, 5, 1, 2, 1, 3)}, 7)
	if _, ok := st.Eval(Count, -1, nil, 6, true); ok {
		t.Fatal("stale epoch served")
	}
	if _, ok := st.Eval(Count, -1, nil, 8, true); ok {
		t.Fatal("future epoch served")
	}
	if _, ok := st.Eval(Count, -1, nil, 7, true); !ok {
		t.Fatal("current epoch refused")
	}
	if _, ok := st.Eval(Sum, 7, nil, 7, true); ok {
		t.Fatal("out-of-range attribute served")
	}
	if _, ok := st.Eval(Agg(99), 1, nil, 7, true); ok {
		t.Fatal("unknown aggregate served from scan path")
	}
}

// TestDisjointCertificate: with pairwise-disjoint constraints the caller's
// certificate lets the store claim COUNT lower bounds and non-emptiness; one
// overlapping insert revokes the certificate and both claims, and removing it
// restores them.
func TestDisjointCertificate(t *testing.T) {
	s := testSchema()
	st := New(s)
	a, b := cons(s, 0, 2, 10, 20, 2, 4), cons(s, 4, 6, 30, 40, 1, 5)
	st.Reset([]uint64{1, 2}, []Constraint{a, b}, 1)
	disjoint := pairwiseDisjoint(s, a, b)
	if !disjoint {
		t.Fatal("fixture constraints overlap")
	}
	r, ok := st.Eval(Count, -1, nil, 1, disjoint)
	if !ok || r.Lo != 3 || r.Hi != 9 {
		t.Fatalf("disjoint count: got %+v ok=%v, want [3,9]", r, ok)
	}
	r, _ = st.Eval(Min, 1, nil, 1, disjoint)
	if r.MaybeEmpty || r.Lo != 10 || r.Hi != 40 {
		t.Fatalf("disjoint min hull: got %+v, want certain [10,40]", r)
	}

	c := cons(s, 1, 5, 0, 1, 1, 2)
	st.Add(2, []uint64{3}, []Constraint{c})
	disjoint = pairwiseDisjoint(s, a, b, c)
	if disjoint {
		t.Fatal("overlapping insert kept the disjointness certificate")
	}
	r, _ = st.Eval(Count, -1, nil, 2, disjoint)
	if r.Lo != 0 || r.Hi != 11 {
		t.Fatalf("overlapping count: got %+v, want [0,11]", r)
	}
	if r, _ = st.Eval(Min, 1, nil, 2, disjoint); !r.MaybeEmpty {
		t.Fatal("overlapping store still claims non-emptiness")
	}

	st.Remove(3, 3)
	disjoint = pairwiseDisjoint(s, a, b)
	if !disjoint {
		t.Fatal("removing the overlap did not restore the certificate")
	}
	if r, _ = st.Eval(Count, -1, nil, 3, disjoint); r.Lo != 3 {
		t.Fatalf("restored count lower bound: got %+v, want Lo=3", r)
	}
}

// TestRegionScan: region-restricted answers clip values and respect
// containment for lower bounds.
func TestRegionScan(t *testing.T) {
	s := testSchema()
	st := New(s)
	st.Reset(
		[]uint64{1, 2},
		[]Constraint{cons(s, 0, 2, 10, 20, 2, 4), cons(s, 10, 14, 30, 40, 2, 5)},
		1,
	)
	// Region covers constraint 1 entirely, misses constraint 2.
	region := domain.Box{domain.NewInterval(0, 5), s.Attr(1).Domain}
	r, ok := st.Eval(Count, -1, region, 1, true)
	if !ok || r.Lo != 2 || r.Hi != 4 || r.Entries != 1 {
		t.Fatalf("contained region count: %+v ok=%v, want [2,4] over 1 entry", r, ok)
	}
	// Region straddles constraint 2: upper bound keeps its KHi, lower
	// bound gets nothing (the rows may live in the uncovered half).
	region = domain.Box{domain.NewInterval(12, 20), s.Attr(1).Domain}
	if r, _ = st.Eval(Count, -1, region, 1, true); r.Lo != 0 || r.Hi != 5 {
		t.Fatalf("straddling region count: %+v, want [0,5]", r)
	}
	if r, _ = st.Eval(Max, 1, region, 1, true); !r.MaybeEmpty || r.Lo != 30 || r.Hi != 40 {
		t.Fatalf("straddling region max: %+v, want uncertain [30,40]", r)
	}
	// Region touching nothing: empty hull, zero counts.
	region = domain.Box{domain.NewInterval(20, 25), s.Attr(1).Domain}
	if r, _ = st.Eval(Sum, 1, region, 1, true); r.Lo != 0 || r.Hi != 0 || r.Entries != 0 {
		t.Fatalf("void region sum: %+v, want [0,0]", r)
	}
	if r, _ = st.Eval(Avg, 1, region, 1, true); !math.IsInf(r.Lo, 1) || !math.IsInf(r.Hi, -1) {
		t.Fatalf("void region avg: %+v, want empty hull", r)
	}
	// Dimension-mismatched region is refused.
	if _, ok := st.Eval(Count, -1, domain.Box{domain.NewInterval(0, 1)}, 1, true); ok {
		t.Fatal("mismatched region dimensionality served")
	}
}

// TestInflateDirections: ulp widening only ever moves outward and leaves
// zeros and infinities alone.
func TestInflateDirections(t *testing.T) {
	for _, x := range []float64{1, -1, 1e-300, -1e17, 123.456} {
		if up := inflateUp(x, 3); up <= x {
			t.Fatalf("inflateUp(%v) = %v not above", x, up)
		}
		if down := inflateDown(x, 3); down >= x {
			t.Fatalf("inflateDown(%v) = %v not below", x, down)
		}
	}
	for _, x := range []float64{0, math.Inf(1), math.Inf(-1)} {
		if inflateUp(x, 3) != x && !math.IsNaN(x) {
			t.Fatalf("inflateUp moved %v", x)
		}
		if inflateDown(x, 3) != x && !math.IsNaN(x) {
			t.Fatalf("inflateDown moved %v", x)
		}
	}
}
