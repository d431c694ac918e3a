package lp

import (
	"math/rand"
	"testing"
)

// randomProblem builds a bounded random LP with mixed dense/sparse rows.
func randomProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(5)
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.Float64()*20 - 10
	}
	var p *Problem
	if rng.Intn(2) == 0 {
		p = NewMaximize(c)
	} else {
		p = NewMinimize(c)
	}
	m := 1 + rng.Intn(6)
	for i := 0; i < m; i++ {
		sense := Sense(rng.Intn(3)) // LE, GE or EQ
		rhs := rng.Float64()*20 - 4 // negative rhs exercises normalization
		if rng.Intn(2) == 0 {
			a := make([]float64, n)
			for j := range a {
				a[j] = rng.Float64()*4 - 1
			}
			_ = p.AddDense(a, sense, rhs)
		} else {
			nnz := 1 + rng.Intn(n)
			idx := make([]int, nnz)
			val := make([]float64, nnz)
			for k := 0; k < nnz; k++ {
				idx[k] = rng.Intn(n) // duplicates allowed: they must accumulate
				val[k] = rng.Float64()*4 - 1
			}
			_ = p.AddSparse(idx, val, sense, rhs)
		}
	}
	for j := 0; j < n; j++ {
		_ = p.AddUpperBound(j, 50)
	}
	return p
}

func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Objective != b.Objective || a.Iterations != b.Iterations {
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

// TestContextSolveBitIdentical verifies a reused Context produces results
// bit-identical to fresh Solve calls — the property the decomposition cache
// and the engine's bit-identity guarantees are built on.
func TestContextSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cx Context
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		cold := Solve(p)
		warmStorage := cx.Solve(p)
		if !sameSolution(cold, warmStorage) {
			t.Fatalf("trial %d: context solve diverged:\n cold %+v\n ctx  %+v", trial, cold, warmStorage)
		}
	}
}

// TestPushPopRow verifies PushRow/PopRow leave the problem exactly as it was.
func TestPushPopRow(t *testing.T) {
	p := NewMaximize([]float64{3, 2})
	mustAdd(t, p.AddDense([]float64{1, 1}, LE, 4))
	mustAdd(t, p.AddDense([]float64{1, 3}, LE, 6))
	base := Solve(p)

	idx, val := []int{0}, []float64{1}
	mustAdd(t, p.PushRow(idx, val, LE, 1))
	restricted := Solve(p)
	if restricted.Objective >= base.Objective {
		t.Fatalf("pushed bound not honored: %v >= %v", restricted.Objective, base.Objective)
	}
	p.PopRow()
	if p.NumConstraints() != 2 {
		t.Fatalf("PopRow left %d rows, want 2", p.NumConstraints())
	}
	if again := Solve(p); !sameSolution(base, again) {
		t.Fatalf("solve after PopRow diverged: %+v vs %+v", base, again)
	}
	if err := p.PushRow([]int{7}, []float64{1}, LE, 1); err == nil {
		t.Error("PushRow accepted an out-of-range index")
	}
	p.PopRow()
	p.PopRow()
	p.PopRow() // popping past empty must not panic
}

func TestContextSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng)
	var cx Context
	cx.Solve(p)
	allocs := testing.AllocsPerRun(100, func() {
		cx.Solve(p)
	})
	if allocs > 2 {
		t.Errorf("context solve allocates %.1f objects per call, want <= 2 (X + header)", allocs)
	}
}
