package core

import (
	"testing"
)

// TestReferencePathBitIdentical runs the full five-aggregate workload through
// the optimized engine and through Options.Reference (recursive SAT,
// clone-based branch-and-bound, per-solve LP assembly) and requires every
// Range to be bit-identical. This is the engine-level contract the per-layer
// differential tests (sat/arena_test.go, milp/differential_test.go,
// lp/context_test.go) compose into.
func TestReferencePathBitIdentical(t *testing.T) {
	for _, disableFast := range []bool{false, true} {
		set := overlappingSet(t)
		queries := batchWorkload(set.Schema())

		opt := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		ref := NewEngine(set, nil, Options{DisableFastPath: disableFast, Reference: true})

		for qi, q := range queries {
			got, err := opt.Bound(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Bound(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("fast=%v query %d (%v): optimized %+v != reference %+v",
					!disableFast, qi, q.Agg, got, want)
			}
		}

		// The solvers must also have issued identical SAT work.
		if g, w := opt.Solver().Stats().Checks, ref.Solver().Stats().Checks; g != w {
			t.Errorf("fast=%v: optimized issued %d SAT checks, reference %d", !disableFast, g, w)
		}
	}
}
