package lp

import "math"

const (
	eps = 1e-9
	// blandAfter switches pivoting from Dantzig's rule to Bland's rule after
	// this many pivots, guaranteeing termination on degenerate problems.
	blandAfter = 2000
)

// Context is a reusable solve workspace: the dense tableau, objective row,
// basis and scratch buffers are kept across calls, so steady-state solves
// allocate only the Solution.X vector. A Context is not safe for concurrent
// use; pool one per worker. Context.Solve performs exactly the arithmetic
// lp.Solve performs, so results are bit-identical whether or not a context
// is reused.
type Context struct {
	t        tableau
	rowBuf   []float64 // flat backing for the tableau rows
	objBuf   []float64 // objective scratch (phase-1 / phase-2 rows)
	cBuf     []float64 // sign-adjusted structural costs
	flipBuf  []bool    // per-row rhs-negation flags
	senseBuf []Sense   // per-row normalized senses
}

// prepare normalizes rows (non-negative rhs) and sizes the tableau for the
// slack and artificial columns. It returns the total column count and the
// first artificial column index.
func (cx *Context) prepare(p *Problem) (total, artStart int, needPhase1 bool) {
	m := len(p.cons)
	cx.flipBuf = resizeBools(cx.flipBuf, m)
	cx.senseBuf = resizeSenses(cx.senseBuf, m)
	nSlack, nArt := 0, 0
	for i := range p.cons {
		con := &p.cons[i]
		sense := con.sense
		flip := con.rhs < 0
		if flip {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		cx.flipBuf[i] = flip
		cx.senseBuf[i] = sense
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	total = p.n + nSlack
	artStart = total
	total += nArt

	// Lay out the tableau over the flat arena.
	need := m * (total + 1)
	if cap(cx.rowBuf) < need {
		cx.rowBuf = make([]float64, need)
	}
	cx.rowBuf = cx.rowBuf[:need]
	clear(cx.rowBuf)
	if cap(cx.t.rows) < m {
		cx.t.rows = make([][]float64, m)
	}
	cx.t.rows = cx.t.rows[:m]
	for i := 0; i < m; i++ {
		cx.t.rows[i] = cx.rowBuf[i*(total+1) : (i+1)*(total+1)]
	}
	cx.t.m, cx.t.n = m, total
	cx.t.basis = resizeInts(cx.t.basis, m)

	// Fill coefficients, slacks and artificials.
	slackCol, artCol := p.n, artStart
	for i := range p.cons {
		con := &p.cons[i]
		row := cx.t.rows[i]
		if con.dense != nil {
			copy(row[:p.n], con.dense)
		} else {
			for k, j := range con.idx {
				row[j] += con.val[k]
			}
		}
		rhs := con.rhs
		if cx.flipBuf[i] {
			for j := 0; j < p.n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		row[total] = rhs
		switch cx.senseBuf[i] {
		case LE:
			row[slackCol] = 1
			cx.t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			cx.t.basis[i] = artCol
			artCol++
			needPhase1 = true
		case EQ:
			row[artCol] = 1
			cx.t.basis[i] = artCol
			artCol++
			needPhase1 = true
		}
	}
	return total, artStart, needPhase1
}

// Solve runs two-phase primal simplex and returns the solution. The
// algorithm, pivot rules and arithmetic are identical to the original
// allocating implementation; only the storage is pooled.
func (cx *Context) Solve(p *Problem) Solution {
	if p.n == 0 {
		return Solution{Status: Optimal, Objective: 0, X: nil}
	}
	// Internally always maximize; flip sign for minimization problems.
	cx.cBuf = resizeFloats(cx.cBuf, p.n)
	sign := 1.0
	if !p.maximize {
		sign = -1.0
	}
	for i, v := range p.c {
		cx.cBuf[i] = sign * v
	}

	total, artStart, needPhase1 := cx.prepare(p)
	t := &cx.t

	iters := 0
	if needPhase1 {
		// Phase 1: maximize -Σ artificials.
		cx.objBuf = resizeFloats(cx.objBuf, total+1)
		clear(cx.objBuf)
		for j := artStart; j < total; j++ {
			cx.objBuf[j] = -1
		}
		t.setObjective(cx.objBuf)
		st, it := t.optimize(artStart)
		iters += it
		if st == Unbounded {
			// Phase 1 objective is bounded above by 0; unbounded means a bug.
			return Solution{Status: Infeasible, Iterations: iters}
		}
		if st == IterLimit {
			return Solution{Status: IterLimit, Iterations: iters}
		}
		if -t.objValue() > eps {
			return Solution{Status: Infeasible, Objective: 0, Iterations: iters}
		}
		// Drive remaining artificial variables out of the basis.
		for i := 0; i < t.m; i++ {
			if t.basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t.rows[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: zero it out; keep the artificial basic at 0.
				for j := 0; j < artStart; j++ {
					t.rows[i][j] = 0
				}
				t.rows[i][total] = 0
			}
		}
	}

	// Phase 2: real objective; artificial columns are frozen out.
	cx.objBuf = resizeFloats(cx.objBuf, total+1)
	clear(cx.objBuf)
	copy(cx.objBuf, cx.cBuf)
	t.setObjective(cx.objBuf)
	st, it := t.optimize(artStart)
	iters += it
	switch st {
	case Unbounded:
		return Solution{Status: Unbounded, Iterations: iters}
	case IterLimit:
		return Solution{Status: IterLimit, Iterations: iters}
	}
	x := make([]float64, p.n)
	for i, b := range t.basis {
		if b < p.n {
			x[b] = t.rows[i][t.n]
		}
	}
	objVal := 0.0
	for i := range x {
		objVal += p.c[i] * x[i]
	}
	return Solution{Status: Optimal, Objective: objVal, X: x, Iterations: iters}
}

// tableau is a dense simplex tableau with an explicit reduced-cost row.
type tableau struct {
	m, n  int
	rows  [][]float64 // m rows of n+1 entries (rhs last)
	obj   []float64   // n+1: reduced costs, obj[n] = -objectiveValue
	basis []int
}

func (t *tableau) objValue() float64 { return -t.obj[t.n] }

// setObjective installs a fresh objective c (length n+1, rhs entry ignored)
// and prices it out against the current basis. c is captured as the
// tableau's objective row storage.
func (t *tableau) setObjective(c []float64) {
	t.obj = c
	t.obj[t.n] = 0
	for i, b := range t.basis {
		cb := c[b]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j <= t.n; j++ {
			t.obj[j] -= cb * row[j]
		}
	}
}

// pivot performs a Gauss-Jordan pivot at (pr, pc).
func (t *tableau) pivot(pr, pc int) {
	prow := t.rows[pr]
	pv := prow[pc]
	inv := 1 / pv
	for j := 0; j <= t.n; j++ {
		prow[j] *= inv
	}
	prow[pc] = 1 // kill residual rounding
	for i := 0; i < t.m; i++ {
		if i == pr {
			continue
		}
		row := t.rows[i]
		f := row[pc]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			row[j] -= f * prow[j]
		}
		row[pc] = 0
	}
	f := t.obj[pc]
	if f != 0 {
		for j := 0; j <= t.n; j++ {
			t.obj[j] -= f * prow[j]
		}
		t.obj[pc] = 0
	}
	t.basis[pr] = pc
}

// optimize runs primal simplex until optimal/unbounded/limit. Columns with
// index >= colLimit are not allowed to enter the basis (used to freeze
// artificials in phase 2).
func (t *tableau) optimize(colLimit int) (Status, int) {
	maxIters := 10000 + 50*(t.m+t.n)
	for iter := 0; iter < maxIters; iter++ {
		bland := iter >= blandAfter
		// Entering column: positive reduced cost (we maximize, obj row holds
		// c - z).
		pc := -1
		best := eps
		for j := 0; j < colLimit; j++ {
			if t.obj[j] > eps {
				if bland {
					pc = j
					break
				}
				if t.obj[j] > best {
					best = t.obj[j]
					pc = j
				}
			}
		}
		if pc < 0 {
			return Optimal, iter
		}
		// Ratio test.
		pr := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][pc]
			if a <= eps {
				continue
			}
			ratio := t.rows[i][t.n] / a
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && pr >= 0 && t.basis[i] < t.basis[pr]) {
				bestRatio = ratio
				pr = i
			}
		}
		if pr < 0 {
			return Unbounded, iter
		}
		t.pivot(pr, pc)
	}
	return IterLimit, maxIters
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeSenses(s []Sense, n int) []Sense {
	if cap(s) < n {
		return make([]Sense, n)
	}
	return s[:n]
}
