package sat

import (
	"math"
	"testing"

	"pcbound/internal/domain"
)

// pred/succ define the lattice neighbours used to carve remainder boxes;
// their boundary behaviour decides whether subtraction is exact. These tests
// pin down integral values exactly on interval endpoints, Nextafter at ±Inf,
// and degenerate single-point intervals.

func TestPredSuccIntegral(t *testing.T) {
	cases := []struct {
		v          float64
		pred, succ float64
	}{
		{5, 4, 6},      // exactly on a lattice point
		{5.3, 5, 6},    // interior: floor/ceil neighbours
		{-5, -6, -4},   // negative lattice point
		{-5.7, -6, -5}, // negative interior
		{0, -1, 1},
	}
	for _, c := range cases {
		if got := pred(c.v, domain.Integral); got != c.pred {
			t.Errorf("pred(%v, Integral) = %v, want %v", c.v, got, c.pred)
		}
		if got := succ(c.v, domain.Integral); got != c.succ {
			t.Errorf("succ(%v, Integral) = %v, want %v", c.v, got, c.succ)
		}
	}
}

func TestPredSuccContinuous(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 5.3, 1e300, -1e300, math.SmallestNonzeroFloat64} {
		p, s := pred(v, domain.Continuous), succ(v, domain.Continuous)
		if !(p < v) || math.Nextafter(p, math.Inf(1)) != v {
			t.Errorf("pred(%v) = %v is not the immediate float predecessor", v, p)
		}
		if !(s > v) || math.Nextafter(s, math.Inf(-1)) != v {
			t.Errorf("succ(%v) = %v is not the immediate float successor", v, s)
		}
	}
}

func TestPredSuccAtInfinity(t *testing.T) {
	// Nextafter from +Inf toward -Inf is MaxFloat64; from -Inf toward +Inf is
	// -MaxFloat64. Toward the same infinity it stays infinite. Subtraction
	// against half-infinite negation boxes relies on these identities.
	if got := pred(math.Inf(1), domain.Continuous); got != math.MaxFloat64 {
		t.Errorf("pred(+Inf) = %v, want MaxFloat64", got)
	}
	if got := succ(math.Inf(-1), domain.Continuous); got != -math.MaxFloat64 {
		t.Errorf("succ(-Inf) = %v, want -MaxFloat64", got)
	}
	if got := succ(math.Inf(1), domain.Continuous); !math.IsInf(got, 1) {
		t.Errorf("succ(+Inf) = %v, want +Inf", got)
	}
	if got := pred(math.Inf(-1), domain.Continuous); !math.IsInf(got, -1) {
		t.Errorf("pred(-Inf) = %v, want -Inf", got)
	}
}

// TestSubtractionAtIntegralEndpoints checks witnesses around negation boxes
// whose endpoints land exactly on lattice points: [3,7] minus [4,6] must
// leave exactly {3, 7} for an integral attribute.
func TestSubtractionAtIntegralEndpoints(t *testing.T) {
	schema := domain.NewSchema(domain.Attr{
		Name: "k", Kind: domain.Integral, Domain: domain.NewInterval(3, 7),
	})
	for _, reference := range []bool{false, true} {
		s := newSearchImpl(schema, reference)
		b := schema.FullBox()
		neg := []domain.Box{{domain.NewInterval(4, 6)}}
		boxes := s.remainder(b, neg)
		if len(boxes) != 2 {
			t.Fatalf("ref=%v: got %d remainder boxes, want 2 (%v)", reference, len(boxes), boxes)
		}
		if boxes[0][0] != domain.NewInterval(3, 3) || boxes[1][0] != domain.NewInterval(7, 7) {
			t.Errorf("ref=%v: remainder = %v, want [3,3] and [7,7]", reference, boxes)
		}
		// Covering the endpoints too must leave nothing.
		negAll := []domain.Box{
			{domain.NewInterval(4, 6)},
			{domain.NewInterval(2.5, 3.4)}, // covers lattice point 3
			{domain.NewInterval(6.7, 7.2)}, // covers lattice point 7
		}
		if s.sat(b, negAll) {
			t.Errorf("ref=%v: endpoints covered but still satisfiable", reference)
		}
	}
}

// TestSubtractionSinglePointIntervals covers degenerate [v,v] regions and
// negations: a point minus itself is empty, a point minus a disjoint point
// is a witness, and a continuous interval minus a point stays satisfiable.
func TestSubtractionSinglePointIntervals(t *testing.T) {
	schema := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Continuous, Domain: domain.NewInterval(0, 10)},
	)
	for _, reference := range []bool{false, true} {
		s := newSearchImpl(schema, reference)
		point := domain.Box{domain.NewInterval(4, 4)}
		if s.sat(point, []domain.Box{{domain.NewInterval(4, 4)}}) {
			t.Errorf("ref=%v: point minus itself should be unsat", reference)
		}
		w, ok := s.uncovered(point, []domain.Box{{domain.NewInterval(5, 5)}})
		if !ok || w[0] != 4 {
			t.Errorf("ref=%v: point minus disjoint point: got (%v, %v), want (4, true)", reference, w, ok)
		}
		// A continuous interval with one interior point removed keeps
		// uncountably many witnesses on either side of the hole.
		full := domain.Box{domain.NewInterval(0, 10)}
		if !s.sat(full, []domain.Box{point}) {
			t.Errorf("ref=%v: interval minus interior point should be sat", reference)
		}
		// For an integral attribute the analogous hole removes the only
		// lattice point in a width-<1 region.
		ischema := domain.NewSchema(
			domain.Attr{Name: "k", Kind: domain.Integral, Domain: domain.NewInterval(0, 10)},
		)
		is := newSearchImpl(ischema, reference)
		narrow := domain.Box{domain.NewInterval(3.5, 4.5)}
		if !is.sat(narrow, nil) {
			t.Fatalf("ref=%v: [3.5,4.5] holds lattice point 4", reference)
		}
		if is.sat(narrow, []domain.Box{{domain.NewInterval(4, 4)}}) {
			t.Errorf("ref=%v: removing the only lattice point should be unsat", reference)
		}
	}
}
