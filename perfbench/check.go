package main

import (
	"fmt"
	"math"
	"runtime"

	"pcbound/internal/core"
)

// Correctness gate. After the timed pass, untimed, the op list is mirrored
// on a local core.Store booted from the same spec and tail: every exact
// range must be bitwise equal to a direct Engine.Bound at the same epoch,
// every summary range must contain that exact range, and every reply must
// carry exactly the epoch the mirror is at. Each mismatch fails its op.

// verdict collects the ops that failed a check and the first reason.
type verdict struct {
	bad   map[int]bool // op index → failed
	first error
}

func (v *verdict) fail(i int, o op, format string, args ...any) {
	if v.bad == nil {
		v.bad = map[int]bool{}
	}
	v.bad[i] = true
	if v.first == nil {
		v.first = fmt.Errorf("op %d (%s): %s", i, kindNames[o.kind], fmt.Sprintf(format, args...))
	}
}

// sameRange reports bitwise equality of every field the wire carries.
func sameRange(a, b core.Range) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		a.LoExact == b.LoExact && a.HiExact == b.HiExact && a.MaybeEmpty == b.MaybeEmpty &&
		a.Reconciled == b.Reconciled && a.Cells == b.Cells && a.SATChecks == b.SATChecks
}

// mirrorCheck replays the op list on a fresh in-memory store and checks
// the replies of one HTTP pass against it. Ops whose request failed
// (skip[i]) are already counted by the pass.
func mirrorCheck(in *inputs, got []reply, skip []bool) (verdict, error) {
	var v verdict
	store, schema, err := core.DecodeSet(in.spec)
	if err != nil {
		return v, err
	}
	for i, r := range in.tail {
		pc, err := core.PCFromJSON(schema, r.Constraint)
		if err != nil {
			return v, fmt.Errorf("tail record %d: %w", i, err)
		}
		if err := store.Replace(core.PCID(r.ID), pc); err != nil {
			return v, fmt.Errorf("tail record %d: %w", i, err)
		}
	}
	e := core.NewEngine(store, nil, core.Options{})
	// exact remembers the ranges computed at the current epoch, so a
	// summary read of a query the stream already solved costs no solve.
	exact := map[string]core.Range{}
	for i, o := range in.ops {
		qs, err := parseQueries(schema, o)
		if err != nil {
			return v, fmt.Errorf("op %d: %w", i, err)
		}
		var want []core.Range
		switch o.kind {
		case opMutate:
			pc, err := core.PCFromJSON(schema, o.replace.Constraint)
			if err != nil {
				return v, fmt.Errorf("op %d: %w", i, err)
			}
			prev := store.Epoch()
			if err := store.Replace(core.PCID(o.replace.ID), pc); err != nil {
				return v, fmt.Errorf("op %d: %w", i, err)
			}
			if store.Epoch() != prev+1 {
				return v, fmt.Errorf("op %d: mirror epoch moved %d -> %d", i, prev, store.Epoch())
			}
			e = e.Rebind()
			clear(exact)
		case opBatch:
			want, err = e.BoundBatch(qs, core.BatchOptions{Parallelism: runtime.GOMAXPROCS(0)})
		default:
			r, ok := exact[o.queries[0].String()]
			if !ok {
				r, err = e.Bound(qs[0])
			}
			want = []core.Range{r}
		}
		if err != nil {
			return v, fmt.Errorf("op %d: mirror bound: %w", i, err)
		}
		for k, r := range want {
			exact[o.queries[k].String()] = r
		}
		if skip[i] {
			continue
		}
		g := got[i]
		if g.epoch != e.Snapshot().Epoch() {
			v.fail(i, o, "epoch %d, mirror is at %d", g.epoch, e.Snapshot().Epoch())
			continue
		}
		if len(g.ranges) != len(want) {
			v.fail(i, o, "%d ranges, want %d", len(g.ranges), len(want))
			continue
		}
		for k, w := range want {
			r := g.ranges[k]
			if o.kind == opSummary {
				if r.Lo > w.Lo || r.Hi < w.Hi {
					v.fail(i, o, "summary [%v, %v] does not contain exact [%v, %v]", r.Lo, r.Hi, w.Lo, w.Hi)
				}
			} else if !sameRange(r, w) {
				v.fail(i, o, "query %d: got %+v, direct Engine.Bound gives %+v", k, r, w)
			}
		}
	}
	return v, nil
}

// sameReplies checks that two passes over the same op list answered every
// op identically: same epoch, bitwise-equal ranges (summary ranges too).
func sameReplies(ops []op, a, b []reply, skip []bool) verdict {
	var v verdict
	for i, o := range ops {
		if skip[i] {
			continue
		}
		if a[i].epoch != b[i].epoch || len(a[i].ranges) != len(b[i].ranges) {
			v.fail(i, o, "epoch %d/%d, %d/%d ranges", a[i].epoch, b[i].epoch, len(a[i].ranges), len(b[i].ranges))
			continue
		}
		for k := range a[i].ranges {
			if !sameRange(a[i].ranges[k], b[i].ranges[k]) {
				v.fail(i, o, "query %d: %+v vs %+v", k, a[i].ranges[k], b[i].ranges[k])
			}
		}
	}
	return v
}
