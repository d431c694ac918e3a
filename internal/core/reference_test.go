package core

import (
	"math"
	"reflect"
	"testing"

	"pcbound/internal/lp"
	"pcbound/internal/milp"
	"pcbound/internal/predicate"
)

// buildLP is the original per-solve LP assembly, kept as the test oracle for
// buildInto: it allocates a fresh problem and copies every row, where
// buildInto pushes rows that reference the cellProblem's shared slices into
// a reused shell. The two must emit the same rows in the same order.
func (cp *cellProblem) buildLP(obj []float64, maximize bool, forbidZero []bool, atLeastOne bool, relaxKLo bool) *lp.Problem {
	var p *lp.Problem
	if maximize {
		p = lp.NewMaximize(obj)
	} else {
		p = lp.NewMinimize(obj)
	}
	for _, j := range cp.constraintIdx() {
		idx := cp.cellsOf[j]
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = 1
		}
		if !math.IsInf(cp.kHi[j], 1) {
			_ = p.AddSparse(idx, val, lp.LE, cp.kHi[j])
		}
		if !relaxKLo && cp.kLo[j] > 0 {
			_ = p.AddSparse(idx, val, lp.GE, cp.kLo[j])
		}
	}
	for i := range cp.cells {
		if forbidZero != nil && forbidZero[i] {
			_ = p.AddSparse([]int{i}, []float64{1}, lp.LE, 0)
			continue
		}
		_ = p.AddUpperBound(i, cp.capHi[i])
	}
	if atLeastOne {
		all := make([]float64, len(cp.cells))
		for i := range all {
			all[i] = 1
		}
		_ = p.AddDense(all, lp.GE, 1)
	}
	return p
}

// rows returns p's constraint rows in order, each as its dense coefficient
// vector followed by its sense and right-hand side. buildLP stores the
// Σx ≥ 1 row densely where buildInto pushes it sparsely, so rows are
// densified before comparing. lp.Problem keeps its rows unexported; the test
// reads them by reflection rather than widen lp's API for one oracle.
func rows(p *lp.Problem) [][]float64 {
	n := p.N()
	cons := reflect.ValueOf(p).Elem().FieldByName("cons")
	out := make([][]float64, cons.Len())
	for r := range out {
		c := cons.Index(r)
		row := make([]float64, n+2)
		if dense := c.FieldByName("dense"); dense.Len() > 0 {
			for i := 0; i < dense.Len(); i++ {
				row[i] = dense.Index(i).Float()
			}
		} else {
			idx, val := c.FieldByName("idx"), c.FieldByName("val")
			for k := 0; k < idx.Len(); k++ {
				row[idx.Index(k).Int()] += val.Index(k).Float()
			}
		}
		row[n] = float64(c.FieldByName("sense").Int())
		row[n+1] = c.FieldByName("rhs").Float()
		out[r] = row
	}
	return out
}

func sameSolution(a, b milp.Solution) bool {
	if a.Status != b.Status || a.Objective != b.Objective || a.Bound != b.Bound || a.Nodes != b.Nodes || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

// TestLPAssemblyMatchesOracle pins buildInto against buildLP on every
// decomposition the batch workload reaches on the overlapping set. For each
// objective the engine uses (the zero feasibility probe, COUNT's unit
// weights, per-cell value extremes) it tries every combination of
// direction, forbidden cells, Σx ≥ 1, relaxed lower bounds and a forced
// x_i ≥ 1 row. The two assemblies must emit the same rows in the same
// order, and give bit-identical MILP solutions: status, objective, bound,
// incumbent and node count. The row check matters because a reordered or
// redundant row (a cap the windows already imply) often leaves every
// solution on this workload unchanged.
func TestLPAssemblyMatchesOracle(t *testing.T) {
	set := overlappingSet(t)
	e := NewEngine(set, nil, Options{})
	ai := set.Schema().MustIndex("price")

	seen := make(map[*predicate.P]bool)
	var problems []*cellProblem
	for _, q := range batchWorkload(set.Schema()) {
		if seen[q.Where] {
			continue
		}
		seen[q.Where] = true
		cp, err := e.decompose(q.Where)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, cp)
	}

	sc := &solveCtx{}
	solves := 0
	for _, cp := range problems {
		n := len(cp.cells)
		someCells := make([]bool, n)
		for i := range someCells {
			someCells[i] = i%3 == 0
		}
		objectives := []struct {
			name string
			c    []float64
		}{
			{"zero", make([]float64, n)},
			{"count", cp.ones()},
			{"upper", cp.upperVec(ai)},
			{"lower", cp.lowerVec(ai)},
		}
		for _, obj := range objectives {
			for combo := 0; combo < 16; combo++ {
				maximize, atLeastOne, relax := combo&1 != 0, combo&2 != 0, combo&4 != 0
				var forbid []bool
				if combo&8 != 0 {
					forbid = someCells
				}
				solve := milp.SolveMin
				if maximize {
					solve = milp.SolveMax
				}
				for minOne := -1; minOne < n; minOne++ {
					got := cp.buildInto(sc, obj.c, maximize, forbid, atLeastOne, relax)
					want := cp.buildLP(obj.c, maximize, forbid, atLeastOne, relax)
					if minOne >= 0 {
						_ = got.PushRow(cp.idxAll[minOne:minOne+1], cp.onesVal[:1], lp.GE, 1)
						_ = want.AddSparse([]int{minOne}, []float64{1}, lp.GE, 1)
					}
					if g, w := rows(got), rows(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%d cells, obj=%s max=%v forbid=%v atLeastOne=%v relax=%v minOne=%d: rows\n buildInto %v\n buildLP   %v",
							n, obj.name, maximize, forbid != nil, atLeastOne, relax, minOne, g, w)
					}
					gotSol := solve(milp.Problem{LP: got}, milp.Options{Ctx: &sc.lp, Work: &sc.work})
					wantSol := solve(milp.Problem{LP: want}, milp.Options{})
					if !sameSolution(gotSol, wantSol) {
						t.Fatalf("%d cells, obj=%s max=%v forbid=%v atLeastOne=%v relax=%v minOne=%d:\n buildInto %+v\n buildLP   %+v",
							n, obj.name, maximize, forbid != nil, atLeastOne, relax, minOne, gotSol, wantSol)
					}
					solves++
				}
			}
		}
	}
	t.Logf("%d decompositions, %d solve pairs", len(problems), solves)
	if len(problems) < 2 || solves == 0 {
		t.Fatalf("workload reached %d decompositions (%d solves); the oracle needs several", len(problems), solves)
	}
}
