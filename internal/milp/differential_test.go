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

// cellShapedMILP builds the integer program internal/core assembles for a
// cell decomposition. Each cell is a distinct non-empty set of active
// constraints and has one count variable. Each constraint contributes a 0/1
// row over the cells it is active in, with an LE kHi window and, when
// kLo > 0, a GE kLo window. Each cell gets either the cap min(kHi) over its
// active constraints or a forced-zero x ≤ 0 row, and Σx ≥ 1 is added to
// some programs. Objectives mix COUNT's unit weights, the zero objective of
// a feasibility probe, and SUM-style per-cell value extremes.
func cellShapedMILP(rng *rand.Rand) (Problem, bool) {
	// Most programs have only pairwise-overlap cells: cycles of those give
	// the relaxation fractional vertices, so the search branches.
	pairwise := rng.Intn(4) != 0
	nCons := 3 + rng.Intn(4)
	distinct := 1<<nCons - 1
	if pairwise {
		distinct = nCons * (nCons - 1) / 2
	}
	nCells := 3 + rng.Intn(min(8, distinct-2))
	c := make([]float64, nCells)
	switch rng.Intn(4) {
	case 0:
		for i := range c {
			c[i] = 1
		}
	case 1:
		// Feasibility probe: all-zero objective.
	default:
		for i := range c {
			c[i] = math.Round(rng.Float64()*2000-500) / 100
		}
	}
	maximize := rng.Intn(2) == 0
	var base *lp.Problem
	if maximize {
		base = lp.NewMaximize(c)
	} else {
		base = lp.NewMinimize(c)
	}
	// active[i] is cell i's constraint set as a bitmask; cells are
	// distinct.
	active := make([]int, 0, nCells)
	seen := make(map[int]bool)
	for len(active) < nCells {
		m := 1 + rng.Intn(1<<nCons-1)
		if pairwise {
			a, b := rng.Intn(nCons), rng.Intn(nCons-1)
			if b >= a {
				b++
			}
			m = 1<<a | 1<<b
		}
		if !seen[m] {
			seen[m] = true
			active = append(active, m)
		}
	}
	capHi := make([]float64, nCells)
	for i := range capHi {
		capHi[i] = math.Inf(1)
	}
	for j := 0; j < nCons; j++ {
		var idx []int
		var val []float64
		for i, m := range active {
			if m&(1<<j) != 0 {
				idx = append(idx, i)
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			continue
		}
		kHi := float64(1 + rng.Intn(10))
		_ = base.AddSparse(idx, val, lp.LE, kHi)
		if rng.Intn(3) == 0 {
			if kLo := float64(rng.Intn(int(kHi) + 1)); kLo > 0 {
				_ = base.AddSparse(idx, val, lp.GE, kLo)
			}
		}
		for _, i := range idx {
			capHi[i] = math.Min(capHi[i], kHi)
		}
	}
	for i := range capHi {
		if rng.Intn(8) == 0 {
			_ = base.AddSparse([]int{i}, []float64{1}, lp.LE, 0)
			continue
		}
		_ = base.AddUpperBound(i, capHi[i])
	}
	if rng.Intn(2) == 0 {
		all := make([]float64, nCells)
		for i := range all {
			all[i] = 1
		}
		_ = base.AddDense(all, lp.GE, 1)
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
// It runs on two generators: general windowed programs with fractional caps
// that force deep branching, and programs with the exact row shape of the
// engine's cell problems.
func TestSolveMatchesReference(t *testing.T) {
	for _, gen := range []struct {
		name   string
		seed   int64
		trials int
		build  func(*rand.Rand) (Problem, bool)
	}{
		{"windowed", 31, 200, randomMILP},
		{"cell-shaped", 37, 1000, cellShapedMILP},
	} {
		rng := rand.New(rand.NewSource(gen.seed))
		var cx lp.Context
		branched := 0
		for trial := 0; trial < gen.trials; trial++ {
			p, maximize := gen.build(rng)
			got := run(p, Options{Ctx: &cx}, maximize)
			want := solveReference(p, Options{}, maximize)
			if !sameMILPSolution(got, want) {
				t.Fatalf("%s trial %d (max=%v):\n got  %+v\n want %+v", gen.name, trial, maximize, got, want)
			}
			if got.Nodes > 1 {
				branched++
			}
		}
		// A generator whose programs never branch would pin only the root
		// LP solve, not the search tree.
		if branched < 20 {
			t.Errorf("%s: only %d of %d trials branched", gen.name, branched, gen.trials)
		}
		t.Logf("%s: %d of %d trials branched", gen.name, branched, gen.trials)
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
