// Command perfbench is pcbound's benchmark: one closed-loop client drives a
// pcserved-equivalent server (internal/server over a loopback listener,
// booted by WAL recovery) through a fixed, seeded op list, checks every
// answer against a direct engine, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same op
// list through HTTP and in process with spans at each layer and prints the
// per-layer metrics. See README.md for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pcbound/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "read-hot, solve-cold or mutate-fresh")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "sizes the op list: roughly this many seconds of work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rounds, err := segmentRounds(*workload, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	// All files live under .bench_build in the working directory (the
	// checkout root) and are removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	meta := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
		"segments": segments, "rounds_per_segment": rounds, "tail_records": tailLen,
		"clients": 1, "load": "closed loop, one connection",
	}
	steal0, total0 := cpuTimes()
	t := &tally{res: result{Correct: true, Metrics: map[string]metric{}}}
	segment := t.endToEnd
	if *trace == 1 {
		segment = t.traced
	}
	retried := 0
	for k, sub := range segmentSeeds(*seed) {
		in := generate(*workload, sub, rounds)
		dir := filepath.Join(work, fmt.Sprintf("segment-%d", k))
		if err := writeDataDir(filepath.Join(dir, "pristine"), in); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing data dir: %v\n", err)
			return 2
		}
		for {
			kept := t.timing
			s0, n0 := cpuTimes()
			if err := segment(in, dir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: segment %d: %v\n", k, err)
				return 2
			}
			// A segment the host disturbed (see maxStealPct) runs again
			// with its timings dropped; its answers still count and are
			// still checked.
			s1, n1 := cpuTimes()
			if *trace == 1 || retried == maxRetries || stealPct(s0, n0, s1, n1) <= maxStealPct {
				break
			}
			t.timing = kept
			retried++
		}
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	meta["retried_segments"] = retried
	if steal1, total1 := cpuTimes(); total1 > total0 {
		meta["host_steal_pct"] = stealPct(steal0, total0, steal1, total1)
	}
	if *trace == 0 {
		t.endToEndMetrics(meta)
	} else {
		t.layerMetrics(meta)
	}
	mb, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding metadata: %v\n", err)
		return 2
	}
	rb, err := json.Marshal(t.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Println(string(mb))
	fmt.Println(string(rb))
	if !t.res.Correct {
		return 1
	}
	return 0
}

// A segment measured while the host's steal time exceeded maxStealPct is
// run again, at most maxRetries times a run. Quiet runs on a shared 2-vCPU
// VM read 0.1–2% steal; runs at 8–20% read p99s two to three times the
// quiet value and throughput a third lower. The cap bounds a run's length
// when the host stays busy.
const (
	maxStealPct = 3.0
	maxRetries  = 1
)

// tally accumulates a run's segments: counts and failures, and the timing
// samples of the segments kept.
type tally struct {
	res result
	timing
	// cellMisses is the most cell-cache misses any segment's node took
	// since boot: a bound on the cache's resident keys.
	cellMisses int64
}

// timing holds every timing sample of the kept segments. A segment that is
// run again restores it to what it was before the segment.
type timing struct {
	kinds   []opKind        // op kind of every timed op, all segments
	client  []time.Duration // client latency of every timed op
	segEnds []int           // len(kinds) at the end of each segment
	walls   []time.Duration // wall time of each segment's timed pass
	setups  []float64       // set-up time of each segment's boot
	heaps   []float64       // server's live heap after each segment's timed pass, MB

	untracedWall time.Duration   // traced runs: pass A's summed wall time
	handler      []time.Duration // traced runs: handler span of every op
	direct       directRun       // traced runs: pass C, pooled
	bctr         counters        // traced runs: pass B's counter deltas, summed
}

// addRun pools one HTTP pass and reports its failed requests.
func (t *tally) addRun(ops []op, run *httpRun) {
	t.res.Attempted += len(ops)
	if run.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops failed, first: %v\n", run.failed, run.firstErr)
	}
	for _, o := range ops {
		t.kinds = append(t.kinds, o.kind)
	}
	t.client = append(t.client, run.client...)
	t.segEnds = append(t.segEnds, len(t.kinds))
	t.walls = append(t.walls, run.wall)
}

// wall is the summed wall time of the kept segments' timed passes.
func (t *tally) wall() time.Duration {
	var w time.Duration
	for _, d := range t.walls {
		w += d
	}
	return w
}

// checkCacheFit fails the run if a node's cell cache may have reached its
// capacity. Every resident key was inserted after a miss, so misses since
// boot bound the key count; past capacity, each insert evicts an arbitrary
// resident key and hit counts would differ from run to run.
func (t *tally) checkCacheFit(cellMisses int64) {
	t.cellMisses = max(t.cellMisses, cellMisses)
	if cellMisses >= core.DefaultCellCacheSize {
		fmt.Fprintf(os.Stderr, "perfbench: %d cell-cache misses since boot reach the cache's %d-key capacity: the working set may no longer fit\n",
			cellMisses, core.DefaultCellCacheSize)
		t.res.Correct = false
	}
}

// check reports a verdict's wrong answers and marks their ops failed.
func (t *tally) check(what string, v verdict, failed []bool) {
	if len(v.bad) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops wrong, first: %v\n", what, len(v.bad), v.first)
	for i := range v.bad {
		failed[i] = true
	}
}

// countFailed adds the segment's failed ops, each counted once however
// many checks it failed.
func (t *tally) countFailed(failed []bool) {
	for _, f := range failed {
		if f {
			t.res.Failed++
		}
	}
}

// endToEnd boots the segment's node, runs the timed pass with tracing off
// and checks every reply against the mirror.
func (t *tally) endToEnd(in *inputs, dir string) error {
	// The live heap before boot holds the benchmark's own inputs; the
	// server's share is what the node adds to it.
	heap0 := liveHeap()
	d, err := freshCopy(dir, "node")
	if err != nil {
		return err
	}
	n, err := boot(d, in.warm, nil)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	t.setups = append(t.setups, n.setup.Seconds())
	before, err := n.scrape()
	if err != nil {
		n.stop()
		return err
	}
	runtime.GC()
	run := runHTTP(n, in.ops)
	after, err := n.scrape()
	if err != nil {
		n.stop()
		return err
	}
	v, err := mirrorCheck(in, run.replies, run.bad)
	if err != nil {
		n.stop()
		return err
	}
	// Read the heap with the node still up but the decoded replies and the
	// mirror gone, so only the server's state is added to heap0.
	run.replies = nil
	t.heaps = append(t.heaps, liveHeap()-heap0)
	if err := n.stop(); err != nil {
		return err
	}
	t.addRun(in.ops, run)
	failed := slices.Clone(run.bad)
	t.check("mirror vs HTTP", v, failed)
	t.countFailed(failed)
	t.checkCacheFit(int64(after["pcserved_cellcache_misses_total"]))
	// Cache-fit assertion: read-hot's working set must fit the
	// decomposition cache, or hit counts (and timings) turn into noise.
	if len(in.warm) > 0 {
		if misses := after["pcserved_cache_misses_total"] - before["pcserved_cache_misses_total"]; misses != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: read-hot's timed pass missed the decomposition cache %v times: the hot set no longer fits\n", misses)
			t.res.Correct = false
		}
	}
	return nil
}

// endToEndMetrics reports each latency percentile and the throughput as
// the median over segments of the segment's own figure, so a host burst
// that slows one or two of the five segments does not move the result.
func (t *tally) endToEndMetrics(meta map[string]any) {
	t.res.Correct = t.res.Correct && t.res.Failed == 0
	var perSeg [numKinds][2][]float64 // kind → p50, p99 → one value per segment
	var thr []float64
	samples := map[string]int{}
	start := 0
	for s, end := range t.segEnds {
		lat := byKind(t.kinds[start:end], t.client[start:end])
		for k := opKind(0); k < numKinds; k++ {
			perSeg[k][0] = append(perSeg[k][0], micros(pct(lat[k], 0.50)))
			perSeg[k][1] = append(perSeg[k][1], micros(pct(lat[k], 0.99)))
			samples[kindNames[k]] += len(lat[k])
		}
		thr = append(thr, float64(end-start)/t.walls[s].Seconds())
		start = end
	}
	// The p99s and the throughput go to the metadata line, not the result,
	// so no bound gates them: on a shared 2-vCPU VM they track the
	// hypervisor, not the program. Through spells of 4–32% steal their
	// ten-seed spreads reached 0.27–0.89 (p99s) and 0.44 (throughput) of
	// the median, while no p50's exceeded 0.14.
	ungated := map[string]metric{"throughput_ops": {median(thr), "ops/s"}}
	for k := opKind(0); k < numKinds; k++ {
		name := kindNames[k]
		t.res.Metrics[name+"_p50_us"] = metric{median(perSeg[k][0]), "us"}
		ungated[name+"_p99_us"] = metric{median(perSeg[k][1]), "us"}
	}
	meta["samples"] = samples
	meta["ungated"] = ungated
	meta["cell_cache_misses_max"] = t.cellMisses
	meta["wall_s"] = t.wall().Seconds()
	meta["setup_s_each"] = t.setups
	meta["heap_live_mb_each"] = t.heaps
	t.res.Metrics["setup_s"] = metric{median(t.setups), "s"}
	t.res.Metrics["heap_live_mb"] = metric{median(t.heaps), "MB"}
}

// byKind splits per-op durations by op kind.
func byKind(kinds []opKind, d []time.Duration) [numKinds][]time.Duration {
	var out [numKinds][]time.Duration
	for i, k := range kinds {
		out[k] = append(out[k], d[i])
	}
	return out
}

// pct is the nearest-rank percentile; 0 for no samples.
func pct(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// liveHeap returns HeapAlloc after a forced GC, in MB. The second GC
// empties the sync.Pool victim caches the first one leaves behind.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuModel reports the host CPU for the run metadata.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealPct is the share of CPU time the hypervisor gave this VM's vCPUs to
// other guests between two cpuTimes readings, in percent.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// cpuTimes returns the host's cumulative steal and total CPU time in clock
// ticks from /proc/stat, or zeros where that is unavailable.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
