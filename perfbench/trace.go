package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"
)

// traced produces one segment's share of the per-layer metrics. It makes
// four passes over the op list, each on a store freshly recovered from the
// segment's data directory:
//
//	A  HTTP, untraced       — the baseline for the tracing overhead
//	B  HTTP, traced         — a span around the server handler per request
//	C  in process, traced   — spans around each layer's entry points
//	D  in process, traced   — C again, for the determinism self-check
//
// B's replies pass the same correctness gate as an end-to-end run; A, C and
// D must answer every op bit-identically to B, and B, C and D must repeat
// every work counter exactly.
func (t *tally) traced(in *inputs, dir string) error {
	httpPass := func(name string, spans *handlerSpans) (*httpRun, counters, error) {
		d, err := freshCopy(dir, name)
		if err != nil {
			return nil, counters{}, err
		}
		var wrap func(h http.Handler) http.Handler
		if spans != nil {
			wrap = spans.wrap
		}
		n, err := boot(d, in.warm, wrap)
		if err != nil {
			return nil, counters{}, fmt.Errorf("boot: %w", err)
		}
		if spans != nil {
			spans.take() // drop the warm-up's spans
		}
		before, err := httpCounters(n)
		if err != nil {
			n.stop()
			return nil, counters{}, err
		}
		runtime.GC()
		run := runHTTP(n, in.ops)
		after, err := httpCounters(n)
		if serr := n.stop(); err == nil {
			err = serr
		}
		t.checkCacheFit(after.cellMisses)
		return run, after.sub(before), err
	}

	a, _, err := httpPass("a", nil)
	if err != nil {
		return err
	}
	hs := &handlerSpans{}
	b, bctr, err := httpPass("b", hs)
	if err != nil {
		return err
	}
	handler := hs.take()
	if len(handler) != len(in.ops) {
		return fmt.Errorf("recorded %d handler spans for %d ops", len(handler), len(in.ops))
	}
	var direct [2]*directRun
	for k, name := range []string{"c", "d"} {
		d, err := freshCopy(dir, name)
		if err != nil {
			return err
		}
		runtime.GC()
		if direct[k], err = runDirect(d, in); err != nil {
			return fmt.Errorf("direct replay: %w", err)
		}
	}
	c, d := direct[0], direct[1]

	t.addRun(in.ops, b)
	v, err := mirrorCheck(in, b.replies, b.bad)
	if err != nil {
		return err
	}
	failed := make([]bool, len(in.ops))
	for i := range failed {
		failed[i] = a.bad[i] || b.bad[i]
	}
	skip := slices.Clone(failed)
	t.check("mirror vs HTTP", v, failed)
	t.check("untraced vs traced HTTP", sameReplies(in.ops, a.replies, b.replies, skip), failed)
	t.check("HTTP vs in-process", sameReplies(in.ops, b.replies, c.replies, skip), failed)
	t.check("in-process replays", sameReplies(in.ops, c.replies, d.replies, skip), failed)
	t.countFailed(failed)

	if len(in.warm) > 0 && bctr.decompMisses != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: read-hot's timed pass missed the decomposition cache %d times: the hot set no longer fits\n", bctr.decompMisses)
		t.res.Correct = false
	}

	// Determinism self-check: the engine does identical work behind HTTP
	// and in process, and the in-process replay repeats itself exactly.
	work := func(r *directRun) []int64 {
		return append(engineWork(r.ctr), r.cells, r.decomposed)
	}
	if !slices.Equal(engineWork(bctr), engineWork(c.ctr)) || !slices.Equal(work(c), work(d)) {
		fmt.Fprintf(os.Stderr, "perfbench: work counters differ between same-seed runs: HTTP %v, in-process %v and %v "+
			"(sat checks, sat nodes, decomp hits, decomp misses, cell hits, cell misses, sched tasks, wal appends[, cells, decompositions])\n",
			engineWork(bctr), work(c), work(d))
		t.res.Correct = false
	}

	t.untracedWall += a.wall
	t.handler = append(t.handler, handler...)
	t.bctr = t.bctr.add(bctr)
	t.direct.add(c)
	return nil
}

// engineWork lists the counters that must repeat exactly between runs of
// the same op list.
func engineWork(c counters) []int64 {
	return []int64{c.satChecks, c.satNodes, c.decompHits, c.decompMisses,
		c.cellHits, c.cellMisses, c.schedExecuted, c.walAppends}
}

// layerMetrics derives the per-layer metrics from the pooled traced HTTP
// passes (handler spans and counters) and the pooled in-process passes.
func (t *tally) layerMetrics(meta map[string]any) {
	t.res.Correct = t.res.Correct && t.res.Failed == 0
	m, c, bctr := t.res.Metrics, &t.direct, t.bctr
	us := func(name string, d time.Duration) { m[name] = metric{micros(d), "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, num, den float64) {
		r := 0.0
		if den > 0 {
			r = num / den
		}
		m[name] = metric{r, "ratio"}
	}

	netSelf := make([]time.Duration, len(t.kinds))
	serverSelf := make([]time.Duration, len(t.kinds))
	for i := range t.kinds {
		netSelf[i] = t.client[i] - t.handler[i]
		serverSelf[i] = t.handler[i] - c.engine[i]
	}
	us("net.roundtrip_self_us", pct(netSelf, 0.5))
	handle, self := byKind(t.kinds, t.handler), byKind(t.kinds, serverSelf)
	for k := opKind(0); k < numKinds; k++ {
		us("server.handle_"+kindNames[k]+"_us", pct(handle[k], 0.5))
		us("server.self_"+kindNames[k]+"_us", pct(self[k], 0.5))
	}
	m["trace.throughput_ops"] = metric{float64(len(t.kinds)) / t.wall().Seconds(), "ops/s"}
	m["trace.overhead_pct"] = metric{100 * (t.wall().Seconds() - t.untracedWall.Seconds()) / t.untracedWall.Seconds(), "%"}

	us("core.bound_p50_us", pct(c.bound, 0.5))
	us("core.bound_p99_us", pct(c.bound, 0.99))
	us("core.summary_us", pct(c.summary, 0.5))
	us("core.batch_us", pct(c.batch, 0.5))
	us("core.replace_us", pct(c.replace, 0.5))
	us("core.rebind_us", pct(c.rebind, 0.5))
	us("core.disjoint_us", pct(c.disjoint, 0.5))
	ctr := c.ctr
	ratio("core.decomp_hit_ratio", float64(ctr.decompHits), float64(ctr.decompHits+ctr.decompMisses))
	count("core.decomp_hits", float64(ctr.decompHits))
	count("core.decomp_misses", float64(ctr.decompMisses))
	ratio("core.cell_hit_ratio", float64(ctr.cellHits), float64(ctr.cellHits+ctr.cellMisses))
	count("core.cell_hits", float64(ctr.cellHits))
	count("core.cell_misses", float64(ctr.cellMisses))
	count("core.exact_queries", float64(c.exactQueries))

	us("cells.decompose_us", pct(c.decompose, 0.5))
	ratio("cells.per_query", float64(c.cells), float64(c.decomposed))
	count("cells.decomposed", float64(c.decomposed))
	ratio("sat.checks_per_query", float64(ctr.satChecks), float64(c.exactQueries))
	ratio("sat.nodes_per_query", float64(ctr.satNodes), float64(c.exactQueries))
	us("milp.solve_us", pct(c.solve, 0.5))

	// Scheduler and runtime counters come from the HTTP pass: they describe
	// the serving process the end-to-end numbers measure.
	ratio("sched.caller_ran_ratio", float64(bctr.schedCaller), float64(bctr.schedExecuted))
	ratio("sched.executed_per_query", float64(bctr.schedExecuted), float64(c.exactQueries))
	count("sched.executed", float64(bctr.schedExecuted))
	us("wal.wait_durable_us", pct(c.wd, 0.5))
	ratio("wal.appends_per_flush", float64(bctr.walAppends), float64(bctr.walFlushes))
	count("wal.appends", float64(bctr.walAppends))
	ratio("runtime.allocs_per_op", float64(bctr.mallocs), float64(len(t.kinds)))
	ratio("runtime.gc_cpu_fraction", bctr.gcCPU, bctr.totalCPU)

	meta["samples"] = map[string]int{
		"http_ops": len(t.kinds), "core_bound": len(c.bound), "core_summary": len(c.summary),
		"core_batch": len(c.batch), "core_replace": len(c.replace), "core_disjoint": len(c.disjoint),
		"cells_decompose": len(c.decompose),
	}
	meta["cell_cache_misses_max"] = t.cellMisses
	meta["untraced_wall_s"], meta["traced_wall_s"] = t.untracedWall.Seconds(), t.wall().Seconds()
}
