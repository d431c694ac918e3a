package core

import (
	"math"
	"strconv"
	"strings"

	"pcbound/internal/cells"
	"pcbound/internal/domain"
	"pcbound/internal/milp"
)

// This file implements the epoch-scoped per-cell bound cache: LP/MILP-level
// results of cell solve tasks, memoized so that repeated and overlapping
// server traffic — and group-by queries whose groups share cells — skip the
// solver entirely. It rides the same epoch-interval mechanism as the
// decomposition cache (epochcache.go): every entry carries the region box
// its inputs live in and a validity interval extended across mutations that
// touch no predicate box overlapping that region (scoped invalidation).
//
// Two key scopes, chosen per task so a hit is always bit-identical to
// recomputation:
//
//   - Cell-scoped ("C|" keys): for problems with no active frequency lower
//     bounds (cp.coupled == false) a per-cell feasibility solve depends only
//     on the cell itself — feasibility of "place one row in cell i" is
//     decided by the active constraints' frequency windows alone — so the
//     key is the cell's content signature (cellSig: verified flag, per-cell
//     cap, and every active constraint's value box and frequency window)
//     and entries are shared across *different* queries and group-by groups
//     whose decompositions produce content-identical cells. The signature
//     deliberately excludes the cell's region box: two groups' cells over
//     different slices of the group attribute but the same active
//     constraints admit exactly the same single-cell allocations, and that
//     region independence is what makes GroupBy skip re-solving shared
//     structure per group. The validity base is the cell's region. One
//     exception guards bit-identity: a "false" verdict produced by
//     exhausting the MILP node budget without an incumbent is a property of
//     the whole search, not the cell, so such verdicts are never inserted
//     under cell-scoped keys (see cellProblem.feasibleStatus).
//   - Problem-scoped ("P|" keys): tasks whose outcome couples all cells
//     (directional MILP solves, AVG binary searches, threshold searches,
//     and per-cell feasibility when frequency lower bounds are active) key
//     on the pushdown-normalized region box plus the task id. Same base box
//     + unchanged region across epochs ⇒ identical decomposition ⇒
//     identical LP ⇒ bit-identical result — exactly the decomposition
//     cache's validity argument, one level down the stack.
//
// Keys embed the aggregate/attribute (where the objective depends on them)
// and the engine's solver-option signature, so option changes can never
// alias results.

// DefaultCellCacheSize is the per-cell bound cache's key capacity. Every
// engine sizes its cache with it. Cell-solve results are tiny (a bool, a
// float64, or a solveResult struct), so the cache is sized by key count,
// not bytes. Like the decomposition cache, each key may hold up to two
// epoch-interval entries, and eviction only ever costs recomputation.
const DefaultCellCacheSize = 32768

// cellBoundCache memoizes cell-solve task results with epoch-interval
// validity. Values are bool (feasibility), float64 (search endpoints), or
// solveResult (directional solves).
type cellBoundCache struct{ ec *epochCache }

func newCellBoundCache(max int, store *Store) *cellBoundCache {
	return &cellBoundCache{ec: newEpochCache(max, store)}
}

func (c *cellBoundCache) get(key string, epoch uint64) (any, bool) {
	return c.ec.get(key, epoch)
}

func (c *cellBoundCache) put(key string, base domain.Box, val any, epoch uint64) {
	c.ec.put(key, base, val, epoch)
}

// milpOptsSig renders the solver options that can influence a solve result
// into a canonical key suffix. Defaults are normalized first so an explicit
// Options.MaxNodes equal to the default shares entries with the zero value.
func milpOptsSig(o milp.Options) string {
	nodes := o.MaxNodes
	if nodes <= 0 {
		nodes = milp.DefaultMaxNodes
	}
	tol := o.IntTol
	if tol <= 0 {
		tol = 1e-6
	}
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(nodes))
	sb.WriteByte(',')
	sb.WriteString(strconv.FormatUint(math.Float64bits(tol), 16))
	return sb.String()
}

// cellSig returns the content signature of cell i: everything a cell-local
// feasibility solve can depend on. Two cells with equal signatures — from
// different queries, group-by groups, or epochs — admit exactly the same
// single-cell allocations:
//
//   - whether the solver verified the cell (early stopping admits
//     unverified cells),
//   - the per-cell cardinality cap (min of active frequency upper bounds),
//     which alone decides uncoupled feasibility, and
//   - for every active constraint, its value box and frequency window
//     (bit-exact float64 endpoints) — not needed by feasibility, but kept
//     so the signature stays collision-free for any future cell-local task
//     that reads values.
//
// Active constraints are identified by content, not by index: constraint
// positions shift across mutations, and the region box is deliberately
// excluded (see the file comment) so group-by groups slicing one attribute
// share entries.
func (cp *cellProblem) cellSig(i int) string {
	c := &cp.cells[i]
	var sb strings.Builder
	sb.Grow(32 + 48*len(c.Active))
	if c.Verified {
		sb.WriteByte('v')
	} else {
		sb.WriteByte('u')
	}
	sb.WriteString(strconv.FormatUint(math.Float64bits(cp.capHi[i]), 16))
	for _, j := range c.Active {
		sb.WriteByte('|')
		sb.WriteString(cells.BoxKey(cp.valueBoxes[j]))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(math.Float64bits(cp.kLo[j]), 16))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(math.Float64bits(cp.kHi[j]), 16))
	}
	return sb.String()
}

// cellFeasKey returns the cache key and validity base box for "can cell i
// host at least one row" (cp.feasible with minOne=i). In an uncoupled
// problem the answer depends only on the cell, so the key is cell-scoped
// and shareable across queries; with active frequency lower bounds the
// whole constraint system couples in and the key is problem-scoped.
func (cp *cellProblem) cellFeasKey(i int, optsSig string) (key string, base domain.Box) {
	if cp.coupled {
		return "P|" + cp.baseKey + "|f" + strconv.Itoa(i) + "|" + optsSig, cp.base
	}
	return "C|" + cp.cellSig(i) + "|f|" + optsSig, cp.cells[i].Region
}

// problemKey returns a problem-scoped cache key for a whole-problem task
// (directional solve, AVG search, threshold search, global feasibility).
// task must encode everything that shapes the objective: the task kind, the
// aggregate/attribute, and the direction.
func (cp *cellProblem) problemKey(task, optsSig string) (key string, base domain.Box) {
	return "P|" + cp.baseKey + "|" + task + "|" + optsSig, cp.base
}
