package milp

import (
	"container/heap"
	"math"

	"pcbound/internal/lp"
)

// This file preserves the original branch-and-bound implementation — a deep
// problem clone per child and a second LP solve when a node is popped — as
// the test oracle for differential_test.go. The shared-problem search in
// milp.go explores the same tree with the same pruning decisions and returns
// bit-identical solutions.

type refNode struct {
	prob  *lp.Problem
	bound float64 // LP relaxation objective (in maximization orientation)
	depth int
}

type refNodeQueue []*refNode

func (q refNodeQueue) Len() int            { return len(q) }
func (q refNodeQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound } // best-first
func (q refNodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refNodeQueue) Push(x interface{}) { *q = append(*q, x.(*refNode)) }
func (q *refNodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

func solveReference(p Problem, opts Options, maximize bool) Solution {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	if opts.IntTol <= 0 {
		opts.IntTol = 1e-6
	}
	isInt := func(i int) bool {
		if p.Integer == nil {
			return true
		}
		return p.Integer[i]
	}
	// dir converts objectives into "maximization orientation" so the
	// best-first queue and pruning logic are direction-free.
	dir := 1.0
	if !maximize {
		dir = -1.0
	}

	root := &refNode{prob: p.LP}
	sol := lp.Solve(root.prob)
	switch sol.Status {
	case lp.Infeasible:
		return Solution{Status: Infeasible, Nodes: 1}
	case lp.Unbounded:
		return Solution{Status: Unbounded, Nodes: 1, Bound: dir * math.Inf(1)}
	case lp.IterLimit:
		// Extremely rare; treat conservatively as an unbounded relaxation.
		return Solution{Status: BoundOnly, Bound: dir * math.Inf(1), Nodes: 1}
	}
	root.bound = dir * sol.Objective

	var (
		best      []float64
		bestObj   = math.Inf(-1) // in maximization orientation
		haveBest  bool
		nodes     int
		openQueue = &refNodeQueue{}
	)
	heap.Init(openQueue)

	process := func(n *refNode, lpSol lp.Solution) {
		// Find the most fractional integer variable.
		frac, fracIdx := -1.0, -1
		for i, v := range lpSol.X {
			if !isInt(i) {
				continue
			}
			f := math.Abs(v - math.Round(v))
			if f > opts.IntTol && f > frac {
				frac, fracIdx = f, i
			}
		}
		if fracIdx < 0 {
			// Integer-feasible.
			obj := dir * lpSol.Objective
			if obj > bestObj {
				bestObj = obj
				best = append([]float64(nil), lpSol.X...)
				// Snap near-integers exactly.
				for i := range best {
					if isInt(i) {
						best[i] = math.Round(best[i])
					}
				}
				haveBest = true
			}
			return
		}
		v := lpSol.X[fracIdx]
		down := n.prob.Clone()
		_ = down.AddSparse([]int{fracIdx}, []float64{1}, lp.LE, math.Floor(v))
		up := n.prob.Clone()
		_ = up.AddSparse([]int{fracIdx}, []float64{1}, lp.GE, math.Ceil(v))
		for _, child := range []*lp.Problem{down, up} {
			cs := lp.Solve(child)
			nodes++
			if cs.Status != lp.Optimal {
				continue
			}
			cb := dir * cs.Objective
			if haveBest && cb <= bestObj+1e-9 {
				continue // pruned by bound
			}
			heap.Push(openQueue, &refNode{prob: child, bound: cb, depth: n.depth + 1})
		}
	}

	nodes = 1
	process(root, sol)
	for openQueue.Len() > 0 && nodes < opts.MaxNodes {
		n := heap.Pop(openQueue).(*refNode)
		if haveBest && n.bound <= bestObj+1e-9 {
			continue
		}
		ns := lp.Solve(n.prob)
		if ns.Status != lp.Optimal {
			continue
		}
		process(n, ns)
	}

	// The global outer bound is the max of the incumbent and all open nodes.
	globalBound := bestObj
	if !haveBest {
		globalBound = math.Inf(-1)
	}
	if openQueue.Len() > 0 {
		for _, n := range *openQueue {
			if n.bound > globalBound {
				globalBound = n.bound
			}
		}
	} else if !haveBest {
		// Search exhausted with no incumbent: the MILP is integer-infeasible.
		return Solution{Status: Infeasible, Nodes: nodes}
	}
	if math.IsInf(globalBound, -1) {
		globalBound = root.bound
	}

	out := Solution{Nodes: nodes, Bound: dir * globalBound}
	if haveBest {
		out.Objective = dir * bestObj
		out.X = best
		if openQueue.Len() == 0 || globalBound <= bestObj+1e-9 {
			out.Status = Optimal
			out.Bound = out.Objective
		} else {
			out.Status = Feasible
		}
		return out
	}
	out.Status = BoundOnly
	return out
}
