package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"pcbound/internal/cells"
	"pcbound/internal/core"
	"pcbound/internal/sat"
	"pcbound/internal/sched"
	"pcbound/internal/wal"
)

// httpRun is one pass of the op list through the node's HTTP API.
type httpRun struct {
	replies  []reply
	bad      []bool          // per op: the request or its reply failed
	client   []time.Duration // per op: request sent to response body read
	wall     time.Duration
	failed   int
	firstErr error
}

// runHTTP executes the op list to completion over the node's one client
// connection, each request sent only after the previous reply is read.
// Replies are decoded after the pass so decoding is not timed.
func runHTTP(n *node, ops []op) *httpRun {
	r := &httpRun{
		replies: make([]reply, len(ops)), bad: make([]bool, len(ops)), client: make([]time.Duration, len(ops)),
	}
	bodies := make([][]byte, len(ops))
	errs := make([]error, len(ops))
	start := time.Now()
	for i, o := range ops {
		t := time.Now()
		bodies[i], errs[i] = n.do(o)
		r.client[i] = time.Since(t)
	}
	r.wall = time.Since(start)
	for i, o := range ops {
		err := errs[i]
		if err == nil {
			r.replies[i], err = decodeReply(o.kind, bodies[i])
		}
		if err != nil {
			r.bad[i] = true
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("op %d (%s): %w", i, kindNames[o.kind], err)
			}
		}
	}
	return r
}

// handlerSpans records the duration of each POST the wrapped handler
// serves, in arrival order: the traced run's span around ServeHTTP. With a
// single closed-loop client, arrival order is op-list order.
type handlerSpans struct {
	mu    sync.Mutex
	spans []time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t)
		h.mu.Lock()
		h.spans = append(h.spans, d)
		h.mu.Unlock()
	})
}

func (h *handlerSpans) take() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.spans
	h.spans = nil
	return s
}

// counters are the work and resource counters read around a pass; a pass
// reports the difference between two reads.
type counters struct {
	satChecks, satNodes        int64
	decompHits, decompMisses   int64
	cellHits, cellMisses       int64
	schedExecuted, schedCaller int64
	walAppends, walFlushes     int64
	mallocs                    int64
	gcCPU, totalCPU            float64
}

// sub returns c − o, field by field.
func (c counters) sub(o counters) counters { return c.combine(o, -1) }

// add returns c + o, field by field.
func (c counters) add(o counters) counters { return c.combine(o, 1) }

func (c counters) combine(o counters, sign int64) counters {
	return counters{
		satChecks: c.satChecks + sign*o.satChecks, satNodes: c.satNodes + sign*o.satNodes,
		decompHits: c.decompHits + sign*o.decompHits, decompMisses: c.decompMisses + sign*o.decompMisses,
		cellHits: c.cellHits + sign*o.cellHits, cellMisses: c.cellMisses + sign*o.cellMisses,
		schedExecuted: c.schedExecuted + sign*o.schedExecuted, schedCaller: c.schedCaller + sign*o.schedCaller,
		walAppends: c.walAppends + sign*o.walAppends, walFlushes: c.walFlushes + sign*o.walFlushes,
		mallocs: c.mallocs + sign*o.mallocs,
		gcCPU:   c.gcCPU + float64(sign)*o.gcCPU, totalCPU: c.totalCPU + float64(sign)*o.totalCPU,
	}
}

// readRuntime fills the scheduler, WAL and Go runtime counters.
func readRuntime(c *counters, dur *wal.Manager) {
	st := sched.Shared().Stats()
	c.schedExecuted, c.schedCaller = st.Executed, st.CallerRan
	wm := dur.Metrics()
	c.walAppends, c.walFlushes = int64(wm.Appends), int64(wm.Flushes)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = int64(ms.Mallocs)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
}

// httpCounters reads a node's counters; the cache counters come from its
// /metrics endpoint.
func httpCounters(n *node) (counters, error) {
	m, err := n.scrape()
	if err != nil {
		return counters{}, err
	}
	st := n.solver.Stats()
	c := counters{
		satChecks: st.Checks, satNodes: st.Nodes,
		decompHits: int64(m["pcserved_cache_hits_total"]), decompMisses: int64(m["pcserved_cache_misses_total"]),
		cellHits: int64(m["pcserved_cellcache_hits_total"]), cellMisses: int64(m["pcserved_cellcache_misses_total"]),
	}
	readRuntime(&c, n.dur)
	return c, nil
}

// directRun is one traced in-process replay of the op list.
type directRun struct {
	replies []reply
	// engine is each op's engine-side time: the sum of its spans below,
	// paired with the HTTP handler span of the same op for server self time.
	engine []time.Duration
	// Per-layer span durations.
	bound, summary, batch           []time.Duration
	replace, rebind, disjoint, wd   []time.Duration
	decompose                       []time.Duration
	solve                           []time.Duration // bound minus decompose, per single exact bound
	cells, decomposed, exactQueries int64
	ctr                             counters
}

// runDirect boots a store from dir the way a node does, minus HTTP, and
// replays the op list with spans around each layer's entry points. A
// separate SAT solver re-runs cells.Decompose for every single exact bound
// that missed the decomposition cache, so the engine's counters match the
// HTTP run's exactly.
func runDirect(dir string, in *inputs) (*directRun, error) {
	dur, err := openWAL(dir)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer dur.Close()
	store, schema := dur.Store(), dur.Schema()
	solver := sat.New(schema)
	store.Closed(solver)
	ov := core.AttachSummary(store)
	defer ov.Detach()
	e := core.NewEngine(store, solver, core.Options{Summary: ov})
	decompSolver := sat.New(schema)
	ctx := context.Background()

	for i, o := range in.warm {
		qs, err := parseQueries(schema, o)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if _, err := e.Bound(qs[0]); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}

	d := &directRun{replies: make([]reply, len(in.ops)), engine: make([]time.Duration, len(in.ops))}
	var before counters
	d.readEngine(&before, e, dur)
	var disjointDone *core.Snapshot
	for i, o := range in.ops {
		qs, err := parseQueries(schema, o)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		var spent time.Duration
		span := func(dst *[]time.Duration, f func()) time.Duration {
			t := time.Now()
			f()
			el := time.Since(t)
			*dst = append(*dst, el)
			spent += el
			return el
		}
		if o.kind == opBound || o.kind == opBatch {
			// The engine computes disjointness lazily, once per snapshot,
			// inside the first exact bound after a mutation; call it first so
			// its cost is a span of its own.
			if snap := e.Snapshot(); snap != disjointDone {
				span(&d.disjoint, func() { snap.Disjoint() })
				disjointDone = snap
			}
		}
		var rep reply
		switch o.kind {
		case opMutate:
			pc, perr := core.PCFromJSON(schema, o.replace.Constraint)
			if perr != nil {
				return nil, fmt.Errorf("op %d: %w", i, perr)
			}
			span(&d.replace, func() { err = store.Replace(core.PCID(o.replace.ID), pc) })
			if err == nil {
				span(&d.rebind, func() { e = e.Rebind() })
				span(&d.wd, func() { err = dur.WaitDurable(e.Snapshot().Epoch()) })
			}
		case opBound:
			var rng core.Range
			misses := e.CacheStats().Misses
			el := span(&d.bound, func() { rng, err = e.Bound(qs[0]) })
			rep.ranges = []core.Range{rng}
			d.exactQueries++
			if err == nil && e.CacheStats().Misses > misses {
				var res cells.Result
				dec := span(&d.decompose, func() {
					res, err = cells.Decompose(decompSolver, e.Snapshot().Predicates(), cells.Options{Pushdown: qs[0].Where})
				})
				spent -= dec // not engine work the server does on this op
				d.cells += int64(len(res.Cells))
				d.decomposed++
				el -= dec
			}
			d.solve = append(d.solve, el)
		case opSummary:
			var rng core.Range
			span(&d.summary, func() {
				var ok bool
				if rng, ok = e.BoundSummary(qs[0]); !ok {
					rng, err = e.Bound(qs[0])
				}
			})
			rep.ranges = []core.Range{rng}
		case opBatch:
			par := min(runtime.GOMAXPROCS(0), len(qs))
			span(&d.batch, func() {
				rep.ranges, err = e.BoundBatchCtx(ctx, qs, core.BatchOptions{Parallelism: par})
			})
			d.exactQueries += int64(len(qs))
		}
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, kindNames[o.kind], err)
		}
		rep.epoch = e.Snapshot().Epoch()
		d.replies[i] = rep
		d.engine[i] = spent
	}
	var after counters
	d.readEngine(&after, e, dur)
	d.ctr = after.sub(before)
	return d, nil
}

// add pools another replay's spans and counters into d.
func (d *directRun) add(o *directRun) {
	d.engine = append(d.engine, o.engine...)
	d.bound = append(d.bound, o.bound...)
	d.summary = append(d.summary, o.summary...)
	d.batch = append(d.batch, o.batch...)
	d.replace = append(d.replace, o.replace...)
	d.rebind = append(d.rebind, o.rebind...)
	d.disjoint = append(d.disjoint, o.disjoint...)
	d.wd = append(d.wd, o.wd...)
	d.decompose = append(d.decompose, o.decompose...)
	d.solve = append(d.solve, o.solve...)
	d.cells += o.cells
	d.decomposed += o.decomposed
	d.exactQueries += o.exactQueries
	d.ctr = d.ctr.add(o.ctr)
}

func (d *directRun) readEngine(c *counters, e *core.Engine, dur *wal.Manager) {
	st := e.Solver().Stats()
	cs, ccs := e.CacheStats(), e.CellCacheStats()
	c.satChecks, c.satNodes = st.Checks, st.Nodes
	c.decompHits, c.decompMisses = cs.Hits, cs.Misses
	c.cellHits, c.cellMisses = ccs.Hits, ccs.Misses
	readRuntime(c, dur)
}
