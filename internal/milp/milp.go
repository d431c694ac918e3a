// Package milp implements a branch-and-bound mixed-integer linear program
// solver over the simplex solver in internal/lp. It substitutes for the
// off-the-shelf MILP solver the paper uses to allocate rows to decomposition
// cells (Section 4.2).
//
// A property this package leans on: for the bounding use-case, the LP
// relaxation optimum is itself a sound outer bound on the integer optimum
// (relaxations only widen the feasible region). Solve therefore always
// returns both the best integer incumbent and the tightest proven relaxation
// bound, and internal/core uses the bound when the node budget expires —
// bounds get looser, never wrong.
//
// The search keeps one shared LP: each node records only its branch rows (a
// persistent path of single-variable bounds), materialized onto the base
// problem with PushRow/PopRow for the node's single LP solve, whose solution
// is cached on the node. Compared to the original clone-per-child search
// (kept as the test oracle in reference_test.go) this removes the per-child
// problem deep copy and the second, redundant solve of every expanded node,
// while visiting exactly the same tree and producing bit-identical solutions.
package milp

import (
	"container/heap"
	"math"

	"pcbound/internal/lp"
)

// Problem is a mixed-integer LP: the base LP plus integrality flags.
type Problem struct {
	// LP is the underlying linear program (variables are non-negative;
	// bounds are rows). The problem takes ownership of it; the solver may
	// temporarily push rows onto it during the search but always restores
	// it before returning.
	LP *lp.Problem
	// Integer marks which variables must take integer values. A nil slice
	// means all variables are integral (the common case in this system,
	// where variables are row counts).
	Integer []bool
}

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes explored.
	// Zero means DefaultMaxNodes.
	MaxNodes int
	// IntTol is the integrality tolerance. Zero means 1e-6.
	IntTol float64
	// Ctx optionally supplies a reusable LP solve context (one per worker);
	// nil allocates a private one per Solve call.
	Ctx *lp.Context
	// Work optionally supplies reusable branch-and-bound scratch (node
	// queue and path-materialization buffers). Like Ctx it is per-executor
	// state: one per scheduler worker / solve context, never shared between
	// concurrent solves. Reuse changes no arithmetic — results are
	// bit-identical with or without it.
	Work *Workspace
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is zero.
const DefaultMaxNodes = 20000

// Status describes the solve outcome.
type Status int

const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means an integer solution was found but the node budget
	// expired before proving optimality; Bound still outer-bounds the
	// true optimum.
	Feasible
	// BoundOnly means no integer solution was found within the budget, but
	// Bound is a valid outer bound on the optimum (if one exists).
	BoundOnly
	// Infeasible means the LP relaxation (hence the MILP) has no solution.
	Infeasible
	// Unbounded means the relaxation is unbounded.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case BoundOnly:
		return "bound-only"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "unknown"
	}
}

// Solution is a MILP solve result.
type Solution struct {
	Status Status
	// Objective is the incumbent's objective (valid for Optimal/Feasible).
	Objective float64
	// Bound outer-bounds the true optimum: for maximization Bound >= opt,
	// for minimization Bound <= opt. Equal to Objective when Optimal.
	Bound float64
	// X is the incumbent point (nil unless Optimal/Feasible).
	X []float64
	// Nodes is the number of nodes explored.
	Nodes int
}

// branchRow is one branching decision: x[idx] (sense) rhs. Nodes share their
// ancestors' rows through prev, so a node's constraint set is its root-to-
// node path — materialized onto the shared base LP only while the node's
// relaxation is being solved.
type branchRow struct {
	prev  *branchRow
	sense lp.Sense
	rhs   float64
	idx   [1]int
	val   [1]float64
	depth int
}

type node struct {
	path  *branchRow
	bound float64 // LP relaxation objective (in maximization orientation)
	depth int
	sol   lp.Solution // cached relaxation solution (solved once, at creation)
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound } // best-first
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Workspace holds branch-and-bound scratch reused across Solve calls: the
// open-node queue's backing array and the root-first path buffer node
// materialization walks. The zero value is ready to use. A Workspace is not
// safe for concurrent use; pool one per executor alongside its lp.Context.
type Workspace struct {
	queue nodeQueue
	path  []*branchRow
}

// reset returns the workspace's buffers emptied for a fresh search. solve
// also clears node references on exit (see its defer), so a pooled idle
// workspace holds only empty backing arrays; the clear here is defensive.
func (w *Workspace) reset() (*nodeQueue, []*branchRow) {
	clear(w.queue)
	w.queue = w.queue[:0]
	return &w.queue, w.path[:0]
}

// SolveMax solves a maximization MILP.
func SolveMax(p Problem, opts Options) Solution { return solve(p, opts, true) }

// SolveMin solves a minimization MILP.
func SolveMin(p Problem, opts Options) Solution { return solve(p, opts, false) }

func solve(p Problem, opts Options, maximize bool) Solution {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	if opts.IntTol <= 0 {
		opts.IntTol = 1e-6
	}
	cx := opts.Ctx
	if cx == nil {
		cx = &lp.Context{}
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

	sol := cx.Solve(p.LP)
	switch sol.Status {
	case lp.Infeasible:
		return Solution{Status: Infeasible, Nodes: 1}
	case lp.Unbounded:
		return Solution{Status: Unbounded, Nodes: 1, Bound: dir * math.Inf(1)}
	case lp.IterLimit:
		// Extremely rare; treat conservatively as an unbounded relaxation.
		return Solution{Status: BoundOnly, Bound: dir * math.Inf(1), Nodes: 1}
	}
	root := &node{bound: dir * sol.Objective, sol: sol}

	work := opts.Work
	if work == nil {
		work = &Workspace{}
	}
	openQueue, pathBuf := work.reset()
	var (
		best     []float64
		bestObj  = math.Inf(-1) // in maximization orientation
		haveBest bool
		nodes    int
	)
	heap.Init(openQueue)
	defer func() {
		// Hand the (possibly grown) buffers back for the next search, and
		// drop every node reference now: a pooled workspace may sit idle
		// indefinitely, and leftover open nodes pin solution vectors. (The
		// final bound scan above runs before this.)
		clear(work.queue)
		work.queue = work.queue[:0]
		clear(pathBuf[:cap(pathBuf)])
		work.path = pathBuf[:0]
	}()

	// solveNode materializes the node path onto the shared base LP, solves
	// the relaxation, and restores the LP.
	solveNode := func(path *branchRow) lp.Solution {
		pathBuf = pathBuf[:0]
		for r := path; r != nil; r = r.prev {
			pathBuf = append(pathBuf, r)
		}
		for i := len(pathBuf) - 1; i >= 0; i-- {
			r := pathBuf[i]
			_ = p.LP.PushRow(r.idx[:], r.val[:], r.sense, r.rhs)
		}
		s := cx.Solve(p.LP)
		for range pathBuf {
			p.LP.PopRow()
		}
		return s
	}

	process := func(n *node, lpSol lp.Solution) {
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
		for _, branch := range [2]struct {
			sense lp.Sense
			rhs   float64
		}{{lp.LE, math.Floor(v)}, {lp.GE, math.Ceil(v)}} {
			childPath := &branchRow{
				prev: n.path, sense: branch.sense, rhs: branch.rhs,
				idx: [1]int{fracIdx}, val: [1]float64{1}, depth: n.depth + 1,
			}
			cs := solveNode(childPath)
			nodes++
			if cs.Status != lp.Optimal {
				continue
			}
			cb := dir * cs.Objective
			if haveBest && cb <= bestObj+1e-9 {
				continue // pruned by bound
			}
			heap.Push(openQueue, &node{path: childPath, bound: cb, depth: n.depth + 1, sol: cs})
		}
	}

	nodes = 1
	process(root, sol)
	for openQueue.Len() > 0 && nodes < opts.MaxNodes {
		n := heap.Pop(openQueue).(*node)
		if haveBest && n.bound <= bestObj+1e-9 {
			continue
		}
		// The node's relaxation was solved when it was created; the cached
		// solution replaces the reference implementation's re-solve.
		process(n, n.sol)
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
