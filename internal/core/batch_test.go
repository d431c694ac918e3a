package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// overlappingSet builds a small constraint set with heavily overlapping
// predicates so every query exercises the general DFS+SAT+MILP path.
func overlappingSet(t testing.TB) *Set {
	t.Helper()
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 40)}, 2, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(3, 60)}, 1, 7),
		MustPC(predicate.NewBuilder(s).Range("utc", 10, 30).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 25)}, 0, 5),
		MustPC(predicate.NewBuilder(s).Range("branch", 1, 2).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(10, 100)}, 0, 6),
	)
	return set
}

// batchWorkload covers all five aggregates over a mix of query regions,
// with deliberate repeats so the decomposition cache sees shared regions.
func batchWorkload(s *domain.Schema) []Query {
	regions := []*predicate.P{
		nil,
		predicate.NewBuilder(s).Range("utc", 0, 10).Build(),
		predicate.NewBuilder(s).Range("utc", 8, 22).Build(),
		predicate.NewBuilder(s).Range("utc", 3, 15).Range("branch", 0, 1).Build(),
		predicate.NewBuilder(s).Range("price", 5, 50).Build(),
	}
	var qs []Query
	for rep := 0; rep < 2; rep++ {
		for _, where := range regions {
			for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
				qs = append(qs, Query{Agg: agg, Attr: "price", Where: where})
			}
		}
	}
	return qs
}

// TestBoundBatchMatchesSequential checks BoundBatch at several parallelism
// levels against the plain uncached sequential path: every Range must be
// bit-identical, for all five aggregates, on both the general and the
// disjoint fast path.
func TestBoundBatchMatchesSequential(t *testing.T) {
	for _, disableFast := range []bool{false, true} {
		set := overlappingSet(t)
		queries := batchWorkload(set.Schema())
		ref := NewEngine(set, nil, Options{DisableFastPath: disableFast, DisableDecompCache: true})
		want := make([]Range, len(queries))
		for i, q := range queries {
			var err error
			want[i], err = ref.Bound(q)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, par := range []int{1, 2, 8} {
			e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
			got, err := e.BoundBatch(queries, BatchOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("fast=%v par=%d query %d (%v %v): got %+v, want %+v",
						!disableFast, par, i, queries[i].Agg, queries[i].Where, got[i], want[i])
				}
			}
		}
	}
}

// TestEngineConcurrentBoundAndBatch hammers one engine from many goroutines
// mixing Bound and BoundBatch over all five aggregates; run under -race it
// exercises the solver clones and the shared decomposition cache.
func TestEngineConcurrentBoundAndBatch(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())
	e := NewEngine(set, nil, Options{})
	want, err := e.BoundBatch(queries, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := e.BoundBatch(queries, BatchOptions{Parallelism: 4})
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d: query %d diverged: %+v vs %+v", g, i, got[i], want[i])
						return
					}
				}
				return
			}
			for i, q := range queries {
				r, err := e.Bound(q)
				if err != nil {
					errs <- err
					return
				}
				if r != want[i] {
					t.Errorf("goroutine %d: query %d diverged: %+v vs %+v", g, i, r, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDecompositionCacheIdenticalRanges verifies the cache is a pure
// memoization: cached and uncached engines return identical ranges, and the
// repeated regions in the workload actually hit the cache.
func TestDecompositionCacheIdenticalRanges(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())
	cached := NewEngine(set, nil, Options{DisableFastPath: true})
	uncached := NewEngine(set, nil, Options{DisableFastPath: true, DisableDecompCache: true})
	for i, q := range queries {
		rc, err := cached.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := uncached.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		if rc != ru {
			t.Errorf("query %d (%v %v): cached %+v != uncached %+v", i, q.Agg, q.Where, rc, ru)
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Errorf("workload with repeated regions produced no cache hits (misses=%d)", st.Misses)
	}
	if ust := uncached.CacheStats(); ust != (CacheStats{}) {
		t.Errorf("disabled cache reported activity: %+v", ust)
	}
}

// TestSnapshotIsolationAndRebind checks the snapshot contract around store
// mutations: an engine keeps answering from the snapshot it bound (adding a
// constraint afterwards must NOT change its results — no stale-cache reads,
// no torn reads), while a rebound engine sees the new constraint and must
// not serve the old region's cached decomposition for the changed region.
func TestSnapshotIsolationAndRebind(t *testing.T) {
	s := salesSchema()
	set := NewStore(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 40)}, 0, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 60)}, 0, 7),
	)
	e := NewEngine(set, nil, Options{DisableFastPath: true})
	before, err := e.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	set.MustAdd(MustPC(predicate.NewBuilder(s).Range("utc", 21, 30).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 10)}, 3, 5))
	// The old engine is pinned to its snapshot.
	pinned, err := e.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pinned != before {
		t.Errorf("snapshot-bound COUNT changed after Add: %v -> %v", before, pinned)
	}
	// A rebound engine reflects the mutation (and must not reuse the cached
	// full-domain decomposition, which the new predicate overlaps).
	re := e.Rebind()
	after, err := re.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Hi != before.Hi+5 || after.Lo != before.Lo+3 {
		t.Errorf("COUNT after Add+Rebind = %v, want [%g, %g] (stale cache?)",
			after, before.Lo+3, before.Hi+5)
	}
	if st := re.CacheStats(); st.Invalidated == 0 {
		t.Errorf("mutation overlapping a cached region reported no invalidation: %+v", st)
	}
}

// TestDecompCacheEvictionAdmitsNewRegions checks the cache does not lock
// out fresh regions once full: with capacity 2 and a drifting 4-region
// workload, later regions must still produce hits on their second pass.
func TestDecompCacheEvictionAdmitsNewRegions(t *testing.T) {
	set := overlappingSet(t)
	s := set.Schema()
	e := NewEngine(set, nil, Options{DisableFastPath: true, DecompCacheSize: 2})
	regions := []*predicate.P{
		predicate.NewBuilder(s).Range("utc", 0, 6).Build(),
		predicate.NewBuilder(s).Range("utc", 7, 13).Build(),
		predicate.NewBuilder(s).Range("utc", 14, 20).Build(),
		predicate.NewBuilder(s).Range("utc", 21, 27).Build(),
	}
	// Fill past capacity, then revisit the LAST region twice: if full
	// inserts were refused, region 3 could never enter the cache.
	for _, where := range regions {
		if _, err := e.Count(where); err != nil {
			t.Fatal(err)
		}
	}
	before := e.CacheStats()
	if _, err := e.Count(regions[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Count(regions[3]); err != nil {
		t.Fatal(err)
	}
	after := e.CacheStats()
	if after.Hits == before.Hits {
		t.Errorf("region beyond capacity never became cacheable: before=%+v after=%+v", before, after)
	}
}

// TestBoundBatchErrorPropagation checks that a failing query does not abort
// the batch and that the first error is surfaced.
func TestBoundBatchErrorPropagation(t *testing.T) {
	set := overlappingSet(t)
	s := set.Schema()
	e := NewEngine(set, nil, Options{})
	queries := []Query{
		{Agg: Count},
		{Agg: Agg(99)},
		{Agg: Sum, Attr: "price", Where: predicate.NewBuilder(s).Range("utc", 0, 10).Build()},
	}
	for _, par := range []int{1, 3} {
		got, err := e.BoundBatch(queries, BatchOptions{Parallelism: par})
		if err == nil {
			t.Fatalf("par=%d: expected an error for the unknown aggregate", par)
		}
		if got[1] != (Range{}) {
			t.Errorf("par=%d: failed query returned non-zero range %+v", par, got[1])
		}
		want0, _ := e.Bound(queries[0])
		want2, _ := e.Bound(queries[2])
		if got[0] != want0 || got[2] != want2 {
			t.Errorf("par=%d: healthy queries not computed despite the failure", par)
		}
	}
	if res, err := e.BoundBatch(nil, BatchOptions{}); res != nil || err != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
}

// TestSolverStatsFoldedAfterBatch checks per-worker solver clones merge
// their counters back, so the engine's solver accounts for all batch work.
func TestSolverStatsFoldedAfterBatch(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())

	seq := NewEngine(set, nil, Options{DisableFastPath: true})
	if _, err := seq.BoundBatch(queries, BatchOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	want := seq.Solver().Stats()

	par := NewEngine(set, nil, Options{DisableFastPath: true})
	if _, err := par.BoundBatch(queries, BatchOptions{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	got := par.Solver().Stats()

	if want.Checks == 0 {
		t.Fatal("sequential batch issued no SAT checks; workload too trivial")
	}
	// Cache racing may duplicate a few decompositions across workers, so the
	// parallel run can only do at least as much attributed work, never less.
	if got.Checks < want.Checks {
		t.Errorf("parallel solver stats lost work: %d checks < sequential %d", got.Checks, want.Checks)
	}
}

// TestBoundBatchCtxCancel checks cooperative cancellation: a pre-cancelled
// context bounds nothing, returns the context error, and leaves every result
// zero — at sequential and parallel fan-out alike.
func TestBoundBatchCtxCancel(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())
	for _, par := range []int{1, 4} {
		e := NewEngine(set, nil, Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		results, err := e.BoundBatchCtx(ctx, queries, BatchOptions{Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		for i, r := range results {
			if r != (Range{}) {
				t.Fatalf("par=%d: result %d = %v after pre-cancelled batch", par, i, r)
			}
		}
	}
}

// TestBoundBatchCtxBackground checks that the context-free path is untouched:
// BoundBatch must stay bit-identical to BoundBatchCtx with a live context.
func TestBoundBatchCtxBackground(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())
	e := NewEngine(set, nil, Options{})
	want, err := e.BoundBatch(queries, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.BoundBatchCtx(context.Background(), queries, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("query %d: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestBoundBatchCtxMidwayCancel cancels while a parallel batch is in flight:
// the batch must return promptly with the context error and partial results,
// and every completed Range must still be bit-identical to the sequential
// reference (an in-flight bound is finished, never corrupted).
func TestBoundBatchCtxMidwayCancel(t *testing.T) {
	set := overlappingSet(t)
	queries := batchWorkload(set.Schema())
	ref := NewEngine(set, nil, Options{DisableDecompCache: true})
	want := make([]Range, len(queries))
	for i, q := range queries {
		r, err := ref.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	e := NewEngine(set, nil, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel() // races with the batch: some queries may finish, some not
	results, err := e.BoundBatchCtx(ctx, queries, BatchOptions{Parallelism: 4})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for i, r := range results {
		if r != (Range{}) && r != want[i] {
			t.Fatalf("query %d: completed result %v differs from reference %v", i, r, want[i])
		}
	}
}
