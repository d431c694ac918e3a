package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"pcbound/internal/core"
	"pcbound/internal/server"
)

// Input generation. Everything here is untimed and a function of the
// workload and the seed alone. The program under test receives only what it
// would receive in production: the spec JSON it boots from, the mutation
// tail logged before the restart, and the request bodies of the op list.
//
// The generator is self-contained on purpose: it does not reuse the
// repository's data or constraint generators, so a change to those cannot
// silently change what the benchmark measures.

const (
	domainMax = 999  // x and y are integers in [0, domainMax]
	valueMax  = 1000 // v is continuous in [0, valueMax]
	gridSide  = 16   // a gridSide×gridSide partition: 256 constraints
	numRows   = 4000 // synthetic missing rows the constraints are derived from
	batchSize = 8    // queries per /v1/batch request
	// tailLen is the number of logged replace records recovery replays on
	// top of the boot checkpoint. It makes setup_s real restart work rather
	// than timer jitter.
	tailLen = 12000
)

// box is an inclusive integer rectangle over (x, y).
type box struct{ x0, x1, y0, y1 int }

func (b box) where() map[string][2]float64 {
	return map[string][2]float64{
		"x": {float64(b.x0), float64(b.x1)},
		"y": {float64(b.y0), float64(b.y1)},
	}
}

// truth is what the synthetic missing rows say about one constraint's
// predicate: every version of the constraint the generator emits contains
// it, so the store stays satisfiable through any sequence of replaces and
// no operation can fail on an infeasible program.
type truth struct {
	pred       box
	count      int
	vmin, vmax float64
}

type opKind int

const (
	opBound   opKind = iota // exact /v1/bound
	opSummary               // /v1/bound with precision "summary"
	opBatch                 // exact /v1/batch of batchSize queries
	opMutate                // /v1/store/replace
	numKinds
)

var kindNames = [numKinds]string{"bound", "summary", "batch", "mutate"}

func (k opKind) path() string {
	switch k {
	case opBatch:
		return "/v1/batch"
	case opMutate:
		return "/v1/store/replace"
	default:
		return "/v1/bound"
	}
}

// op is one request of the op list: its wire body plus the decoded form
// the direct replay and the correctness mirror use.
type op struct {
	kind    opKind
	body    []byte
	queries []core.QueryJSON      // bound, summary: one; batch: batchSize
	replace server.ReplaceRequest // mutate
}

// inputs is one workload's generated input.
type inputs struct {
	spec []byte                  // boot spec in core.DecodeSet form
	tail []server.ReplaceRequest // mutations logged before the restart
	warm []op                    // warm-up pass, part of set-up (read-hot only)
	ops  []op                    // the timed op list
}

type gen struct {
	rng    *rand.Rand
	rows   [][3]float64 // x, y, v
	truths []truth
	xCuts  []int // grid column starts, plus domainMax+1
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	g.rows = make([][3]float64, numRows)
	for i := range g.rows {
		x, y := g.rng.Intn(domainMax+1), g.rng.Intn(domainMax+1)
		// A smooth surface plus noise, so value hulls differ by region.
		v := 500 + 300*math.Sin(float64(x)/160)*math.Cos(float64(y)/230) + 60*g.rng.NormFloat64()
		v = math.Round(math.Max(0, math.Min(valueMax, v))*100) / 100
		g.rows[i] = [3]float64{float64(x), float64(y), v}
	}
	return g
}

// cuts returns gridSide jittered band starts over [0, domainMax] followed by
// domainMax+1. Jitter keeps cells unequal without letting a seed produce
// degenerate slivers, so per-query cost varies little from seed to seed.
func (g *gen) cuts() []int {
	const w = (domainMax + 1) / gridSide
	out := []int{0}
	for k := 1; k < gridSide; k++ {
		out = append(out, k*w+g.rng.Intn(w/2)-w/4)
	}
	return append(out, domainMax+1)
}

// addGrid appends the gridSide×gridSide partition of the domain.
func (g *gen) addGrid() {
	g.xCuts = g.cuts()
	yCuts := g.cuts()
	for i := 0; i < gridSide; i++ {
		for j := 0; j < gridSide; j++ {
			g.addTruth(box{g.xCuts[i], g.xCuts[i+1] - 1, yCuts[j], yCuts[j+1] - 1})
		}
	}
}

// addOverlaps appends a second, coarser layer of boxes on a jittered
// overlapSide×overlapSide lattice, each a fifth of the domain on a side, so
// they straddle the grid's cells and force the general MILP path. A lattice
// rather than free placement keeps the overlap structure, and with it the
// per-query solve cost, nearly the same from seed to seed.
func (g *gen) addOverlaps() {
	const step = (domainMax + 1) / overlapSide
	const side = (domainMax + 1) / 5
	for i := 0; i < overlapSide; i++ {
		for j := 0; j < overlapSide; j++ {
			x0 := min(max(0, i*step+step/2-side/2+g.rng.Intn(61)-30), domainMax+1-side)
			y0 := min(max(0, j*step+step/2-side/2+g.rng.Intn(61)-30), domainMax+1-side)
			g.addTruth(box{x0, x0 + side - 1, y0, y0 + side - 1})
		}
	}
}

// span draws an integer interval of width frac∈[lo,hi] of the domain
// inside [0, max].
func (g *gen) span(lo, hi float64, max int) (int, int) {
	w := int((lo + (hi-lo)*g.rng.Float64()) * (domainMax + 1))
	if w > max+1 {
		w = max + 1
	}
	a := g.rng.Intn(max + 2 - w)
	return a, a + w - 1
}

func (g *gen) addTruth(b box) {
	t := truth{pred: b, vmin: math.Inf(1), vmax: math.Inf(-1)}
	for _, r := range g.rows {
		x, y := int(r[0]), int(r[1])
		if x >= b.x0 && x <= b.x1 && y >= b.y0 && y <= b.y1 {
			t.count++
			t.vmin = math.Min(t.vmin, r[2])
			t.vmax = math.Max(t.vmax, r[2])
		}
	}
	g.truths = append(g.truths, t)
}

// version emits a fresh version of constraint j: its predicate, a frequency
// window and a value range that each contain the truth with random slack.
func (g *gen) version(j int) core.PCJSON {
	t := g.truths[j]
	pj := core.PCJSON{
		Predicate: t.pred.where(),
		KLo:       max(0, t.count-g.rng.Intn(3)),
		KHi:       t.count + g.rng.Intn(3),
	}
	if t.count > 0 {
		lo := math.Max(0, t.vmin-math.Round(g.rng.Float64()*2000)/100)
		hi := math.Min(valueMax, t.vmax+math.Round(g.rng.Float64()*2000)/100)
		pj.Values = map[string][2]float64{"v": {lo, hi}}
	}
	return pj
}

func (g *gen) spec() []byte {
	spec := core.SpecJSON{Schema: []core.AttrJSON{
		{Name: "x", Kind: "integral", Min: 0, Max: domainMax},
		{Name: "y", Kind: "integral", Min: 0, Max: domainMax},
		{Name: "v", Kind: "continuous", Min: 0, Max: valueMax},
	}}
	for j := range g.truths {
		spec.Constraints = append(spec.Constraints, g.version(j))
	}
	return mustJSON(spec)
}

// replace returns a replace of constraint j (id j+1: DecodeSet assigns ids
// in spec order starting at 1).
func (g *gen) replace(j int) server.ReplaceRequest {
	return server.ReplaceRequest{ID: uint64(j + 1), Constraint: g.version(j)}
}

func (g *gen) tail() []server.ReplaceRequest {
	out := make([]server.ReplaceRequest, tailLen)
	for i := range out {
		out[i] = g.replace(g.rng.Intn(len(g.truths)))
	}
	return out
}

var aggs = [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// query draws a region covering 5–25% of each dimension with x <= xMax;
// the aggregate is chosen by the caller so every list cycles all five.
func (g *gen) query(agg string, xMax int) core.QueryJSON {
	x0, x1 := g.span(0.05, 0.25, xMax)
	y0, y1 := g.span(0.05, 0.25, domainMax)
	q := core.QueryJSON{Agg: agg, Where: box{x0, x1, y0, y1}.where()}
	if agg != "COUNT" {
		q.Attr = "v"
	}
	return q
}

// queries draws n queries cycling through the aggregates in from.
func (g *gen) queries(n, first, xMax int, from []string) []core.QueryJSON {
	out := make([]core.QueryJSON, n)
	for i := range out {
		out[i] = g.query(from[(first+i)%len(from)], xMax)
	}
	return out
}

func boundOp(q core.QueryJSON) op {
	return op{kind: opBound, queries: []core.QueryJSON{q}, body: mustJSON(server.BoundRequest{Query: q})}
}

func summaryOp(q core.QueryJSON) op {
	return op{kind: opSummary, queries: []core.QueryJSON{q},
		body: mustJSON(server.BoundRequest{Query: q, Precision: "summary"})}
}

func batchOp(qs []core.QueryJSON) op {
	return op{kind: opBatch, queries: qs, body: mustJSON(server.BatchRequest{Queries: qs})}
}

// summaryBlock appends summary reads of qs, the last few rounds' queries.
// A cheap request that directly follows an expensive one or a replace ack
// runs two to three times slower than the next few (GC, and goroutines and
// vCPUs waking), so summary reads come in blocks: a fixed, small share of
// them is first in line and the rest measure the summary path itself.
func summaryBlock(ops []op, qs []core.QueryJSON) []op {
	for _, q := range qs {
		ops = append(ops, summaryOp(q))
	}
	return ops
}

func mutateOp(r server.ReplaceRequest) op {
	return op{kind: opMutate, replace: r, body: mustJSON(r)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding generated input: %v", err))
	}
	return b
}

// Workload shapes; README.md records why each workload exists.
const (
	// hotSetSize distinct queries fit both engine caches (1024 regions,
	// 32768 cell keys) with room to spare; read-hot asserts it.
	hotSetSize = 160
	// readHotBlocks is how many blocks of replaces a read-hot segment holds.
	readHotBlocks = 4
	// blockEvery is the stride, in rounds, of solve-cold's and
	// mutate-fresh's summary blocks (see summaryBlock).
	blockEvery = 8
	// overlapSide² overlapping constraints join the grid in the
	// overlapping store family.
	overlapSide = 5
	// coldRounds caps a solve-cold segment at about 29k cell-cache keys
	// (≈27 per round), under the cache's 32768-key capacity with margin;
	// a run checks the capacity itself (see checkCacheFit). The cap means
	// solve-cold's op list stops growing above --seconds 27.
	coldRounds = 1000
)

// segments is how many independent node lifetimes a run is split into.
// Each segment boots its own store, generated from its own sub-seed, and
// runs its share of the rounds; percentiles pool the samples of all
// segments. Pooling over several stores keeps one store's hardest queries
// from setting a run's tail, and each boot is one set-up sample.
const segments = 5

// roundsPerSecond sizes a run: roundsPerSecond × --seconds rounds in all,
// a fixed amount of work that does not depend on how fast the program is.
var roundsPerSecond = map[string]int{
	"read-hot":     2000,
	"solve-cold":   180,
	"mutate-fresh": 175,
}

// segmentRounds returns the rounds each segment of a run executes.
func segmentRounds(workload string, seconds int) (int, error) {
	perSecond, ok := roundsPerSecond[workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q (want read-hot, solve-cold or mutate-fresh)", workload)
	}
	rounds := max(1, perSecond*seconds/segments)
	if workload == "solve-cold" {
		rounds = min(rounds, coldRounds)
	}
	return rounds, nil
}

// segmentSeeds derives each segment's seed from the run's seed.
func segmentSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, segments)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// generate builds one segment's inputs.
func generate(workload string, seed int64, rounds int) *inputs {
	g := newGen(seed)
	g.addGrid()
	if workload != "mutate-fresh" {
		g.addOverlaps()
	}
	in := &inputs{spec: g.spec(), tail: g.tail()}
	// Every end-to-end metric needs samples on every workload, so a
	// workload's stream also carries the request kinds the workload is not
	// about, at fixed strides. Spread over the whole run, those requests see
	// the same host conditions as the rest of it, and a short host burst
	// cannot move their median.
	switch workload {
	case "read-hot":
		// Exact and summary reads interleave over the hot set, with a batch
		// of hot queries every 4th round. Replaces come in readHotBlocks
		// blocks spread over the segment. Hot queries stay left of the last
		// grid column and the replaces touch only that column's
		// constraints, so every cached hot region is retained across them
		// (scoped invalidation) and never missed. Retaining an entry costs
		// a mutation-log scan on its first hit after a block; in blocks,
		// that happens once per entry and block, and the other hits find
		// their entry valid at the current epoch.
		strip := g.xCuts[gridSide-1]
		every, blockLen := max(1, rounds/readHotBlocks), max(1, rounds/128)
		hot := g.queries(hotSetSize, 0, strip-1, aggs[:])
		for _, q := range hot {
			in.warm = append(in.warm, boundOp(q))
		}
		for r := 0; r < rounds; r++ {
			in.ops = append(in.ops, boundOp(hot[r%hotSetSize]), summaryOp(hot[(r*7+3)%hotSetSize]))
			if r%4 == 3 {
				qs := make([]core.QueryJSON, batchSize)
				for k := range qs {
					qs[k] = hot[(r*13+k*19)%hotSetSize]
				}
				in.ops = append(in.ops, batchOp(qs))
			}
			if r%every == every/2 {
				for k := 0; k < blockLen; k++ {
					in.ops = append(in.ops, mutateOp(g.replace((gridSide-1)*gridSide+g.rng.Intn(gridSide))))
				}
			}
		}
	case "solve-cold":
		// An exact read of a fresh region, then a batch of fresh regions,
		// so the decomposition cache always misses; every blockEvery-th
		// round ends with a replace and a block of summary reads.
		//
		// Batches hold only COUNT, SUM and AVG. A MIN or MAX solve fills
		// the cell cache with per-cell feasibility entries keyed by cell
		// content, which later queries over the same constraints hit. Two
		// batch workers racing on one such key both miss, so the hit count
		// would depend on thread timing; run alone, as single reads, the
		// MIN and MAX hits repeat exactly. coldRounds keeps a segment's cell
		// cache keys below its capacity for the same reason: past it, a
		// random resident key is evicted on every insert.
		var recent []core.QueryJSON
		for r := 0; r < rounds; r++ {
			q := g.query(aggs[r%len(aggs)], domainMax)
			batch := g.queries(batchSize, r, domainMax, aggs[:3])
			in.ops = append(in.ops, boundOp(q), batchOp(batch))
			recent = append(recent, q, batch[0])
			if r%blockEvery == blockEvery-1 {
				in.ops = append(in.ops, mutateOp(g.replace(g.rng.Intn(len(g.truths)))))
				in.ops, recent = summaryBlock(in.ops, recent), recent[:0]
			}
		}
	case "mutate-fresh":
		// Each round replaces a constraint and reads exactly at the new
		// epoch, which pays Snapshot.Disjoint on the new snapshot, then runs
		// a batch of fresh queries at that epoch; every blockEvery-th round
		// ends with a block of summary reads.
		var recent []core.QueryJSON
		for r := 0; r < rounds; r++ {
			q := g.query(aggs[r%len(aggs)], domainMax)
			batch := g.queries(batchSize, r, domainMax, aggs[:])
			in.ops = append(in.ops, mutateOp(g.replace(g.rng.Intn(len(g.truths)))), boundOp(q), batchOp(batch))
			recent = append(recent, q, batch[0])
			if r%blockEvery == blockEvery-1 {
				in.ops, recent = summaryBlock(in.ops, recent), recent[:0]
			}
		}
	}
	return in
}
