package milp

import (
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/lp"
)

// randomMILP builds a bounded random integer program shaped like the cell
// allocation problems internal/core produces: non-negative integer counts,
// window rows over variable subsets, per-variable caps.
func randomMILP(rng *rand.Rand) (Problem, bool) {
	n := 2 + rng.Intn(5)
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.Float64()*20 - 5
	}
	maximize := rng.Intn(2) == 0
	var base *lp.Problem
	if maximize {
		base = lp.NewMaximize(c)
	} else {
		base = lp.NewMinimize(c)
	}
	rows := 1 + rng.Intn(4)
	for r := 0; r < rows; r++ {
		nnz := 1 + rng.Intn(n)
		idx := make([]int, 0, nnz)
		val := make([]float64, 0, nnz)
		for k := 0; k < nnz; k++ {
			idx = append(idx, rng.Intn(n))
			val = append(val, 1)
		}
		hi := float64(2 + rng.Intn(30))
		_ = base.AddSparse(idx, val, lp.LE, hi)
		if rng.Intn(2) == 0 {
			lo := math.Floor(hi * rng.Float64() * 0.6)
			if lo > 0 {
				_ = base.AddSparse(idx, val, lp.GE, lo)
			}
		}
	}
	for j := 0; j < n; j++ {
		_ = base.AddUpperBound(j, float64(3+rng.Intn(25))+0.5) // fractional caps force branching
	}
	return Problem{LP: base}, maximize
}

func run(p Problem, opts Options, maximize bool) Solution {
	if maximize {
		return SolveMax(p, opts)
	}
	return SolveMin(p, opts)
}

func sameMILPSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Objective != b.Objective || a.Bound != b.Bound || a.Nodes != b.Nodes {
		return false
	}
	if len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

// TestSolveMatchesReference verifies the shared-problem, cached-solution
// branch-and-bound explores the same tree as the clone-based reference:
// status, objective, bound, incumbent and node count are all bit-identical.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var cx lp.Context
	for trial := 0; trial < 200; trial++ {
		p, maximize := randomMILP(rng)
		got := run(p, Options{Ctx: &cx}, maximize)
		want := run(p, Options{Reference: true}, maximize)
		if !sameMILPSolution(got, want) {
			t.Fatalf("trial %d (max=%v):\n got  %+v\n want %+v", trial, maximize, got, want)
		}
	}
}

// TestSolveRestoresProblem confirms the push/pop materialization leaves the
// base LP with its original rows, so callers can reuse it.
func TestSolveRestoresProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		p, maximize := randomMILP(rng)
		before := p.LP.NumConstraints()
		first := run(p, Options{}, maximize)
		if p.LP.NumConstraints() != before {
			t.Fatalf("trial %d: solve left %d rows, want %d", trial, p.LP.NumConstraints(), before)
		}
		second := run(p, Options{}, maximize)
		if !sameMILPSolution(first, second) {
			t.Fatalf("trial %d: repeat solve diverged", trial)
		}
	}
}
