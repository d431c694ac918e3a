package sat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/domain"
)

// randomSchema builds a mixed continuous/integral schema of the given width.
func randomSchema(dims int, rng *rand.Rand) *domain.Schema {
	attrs := make([]domain.Attr, dims)
	for d := range attrs {
		kind := domain.Continuous
		if rng.Intn(2) == 0 {
			kind = domain.Integral
		}
		attrs[d] = domain.Attr{
			Name:   fmt.Sprintf("a%d", d),
			Kind:   kind,
			Domain: domain.NewInterval(0, 100),
		}
	}
	return domain.NewSchema(attrs...)
}

// randomBox draws a box inside the schema domain; small boxes and
// boundary-touching boxes are both likely.
func randomBox(dims int, rng *rand.Rand) domain.Box {
	b := make(domain.Box, dims)
	for d := range b {
		lo := rng.Float64() * 90
		w := rng.Float64() * 40
		if rng.Intn(4) == 0 {
			lo = math.Floor(lo) // integer-aligned edges hit lattice boundaries
			w = math.Floor(w)
		}
		b[d] = domain.NewInterval(lo, lo+w)
	}
	return b
}

func boxesEqual(a, b []domain.Box) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

// TestSearchMatchesReference differentially fuzzes the iterative arena engine
// against the recursive reference: satisfiability verdicts, witness rows and
// remainder decompositions (boxes and their order) must be bit-identical.
// Negation sets straddle negIndexMin so both the plain and the
// sorted-index-accelerated candidate filters are exercised.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		dims := 1 + rng.Intn(4)
		schema := randomSchema(dims, rng)
		opt := New(schema)
		ref := New(schema)

		nNeg := rng.Intn(2 * negIndexMin)
		b := randomBox(dims, rng)
		neg := make([]domain.Box, nNeg)
		for i := range neg {
			neg[i] = randomBox(dims, rng)
		}

		gotW, gotOK := opt.uncovered(b, neg)
		wantW, wantOK := ref.uncoveredRec(b, neg)
		if gotOK != wantOK {
			t.Fatalf("trial %d: sat verdict %v != reference %v", trial, gotOK, wantOK)
		}
		if gotOK {
			for d := range gotW {
				if gotW[d] != wantW[d] {
					t.Fatalf("trial %d: witness %v != reference %v", trial, gotW, wantW)
				}
			}
		}

		gotR := opt.RemainderBoxes(b, neg)
		var wantR []domain.Box
		ref.remainderRec(b.Clone(), neg, &wantR)
		if !boxesEqual(gotR, wantR) {
			t.Fatalf("trial %d: remainder mismatch\n got %v\nwant %v", trial, gotR, wantR)
		}
	}
}

// TestSearchMatchesReferenceDenseOverlap stresses deep subtraction stacks:
// many mutually overlapping negations over a shared region, with enough boxes
// to force the per-dimension sorted index on.
func TestSearchMatchesReferenceDenseOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		dims := 2 + rng.Intn(2)
		schema := randomSchema(dims, rng)
		opt := New(schema)
		ref := New(schema)

		b := schema.FullBox()
		neg := make([]domain.Box, negIndexMin+16)
		for i := range neg {
			neg[i] = make(domain.Box, dims)
			for d := range neg[i] {
				lo := rng.Float64() * 60
				neg[i][d] = domain.NewInterval(lo, lo+20+rng.Float64()*30)
			}
		}

		_, want := ref.uncoveredRec(b, neg)
		if got := opt.SatBoxes(b, neg); got != want {
			t.Fatalf("trial %d: verdict %v != %v", trial, got, want)
		}
		gotR := opt.RemainderBoxes(b, neg)
		wantR := ref.remainderBoxesRec(b, neg)
		if !boxesEqual(gotR, wantR) {
			t.Fatalf("trial %d: remainder mismatch (%d vs %d boxes)", trial, len(gotR), len(wantR))
		}
	}
}

// TestScratchReuse runs many queries through one solver to confirm pooled
// scratch state does not leak between calls.
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := randomSchema(3, rng)
	opt := New(schema)
	ref := New(schema)
	for q := 0; q < 200; q++ {
		b := randomBox(3, rng)
		neg := make([]domain.Box, rng.Intn(40))
		for i := range neg {
			neg[i] = randomBox(3, rng)
		}
		_, want := ref.uncoveredRec(b, neg)
		if got := opt.SatBoxes(b, neg); got != want {
			t.Fatalf("query %d: verdict diverged after reuse", q)
		}
	}
}

// TestSearchAllocFree verifies the steady-state satisfiability check performs
// no per-node heap allocation.
func TestSearchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	rng := rand.New(rand.NewSource(9))
	schema := randomSchema(3, rng)
	s := New(schema)
	b := schema.FullBox()
	neg := make([]domain.Box, 12)
	for i := range neg {
		neg[i] = randomBox(3, rng)
	}
	s.SatBoxes(b, neg) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		s.SatBoxes(b, neg)
	})
	// Only the witness row (when satisfiable) may allocate; the reference
	// allocates per search node (hundreds on this workload).
	if allocs > 2 {
		t.Errorf("SatBoxes allocates %.1f objects per call, want <= 2", allocs)
	}
}
