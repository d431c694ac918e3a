package core

import (
	"math/rand"
	"sync"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
	"pcbound/internal/sat"
)

// randPC draws a random predicate-constraint over the sales schema: a random
// utc×branch predicate box, a random price value ceiling, and a random
// frequency window.
func randPC(rng *rand.Rand, s *domain.Schema) PC {
	uLo := rng.Intn(28)
	uHi := uLo + 1 + rng.Intn(30-uLo)
	b := predicate.NewBuilder(s).Range("utc", float64(uLo), float64(uHi))
	if rng.Intn(2) == 0 {
		bLo := rng.Intn(2)
		b = b.Range("branch", float64(bLo), float64(bLo+rng.Intn(3-bLo)))
	}
	vLo := rng.Float64() * 20
	vHi := vLo + 1 + rng.Float64()*80
	kLo := rng.Intn(4)
	kHi := kLo + rng.Intn(12)
	return MustPC(b.Build(), map[string]domain.Interval{"price": domain.NewInterval(vLo, vHi)}, kLo, kHi)
}

// mutationQueries is a compact all-aggregate workload over several regions,
// including regions a mutation stream will and will not touch.
func mutationQueries(s *domain.Schema) []Query {
	regions := []*predicate.P{
		nil,
		predicate.NewBuilder(s).Range("utc", 0, 10).Build(),
		predicate.NewBuilder(s).Range("utc", 8, 22).Build(),
		predicate.NewBuilder(s).Range("price", 5, 50).Build(),
	}
	var qs []Query
	for _, where := range regions {
		for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
			qs = append(qs, Query{Agg: agg, Attr: "price", Where: where})
		}
	}
	return qs
}

// TestStoreMutationDifferential is the acceptance differential: drive a
// randomized sequence of Add/Remove/Replace mutations, and after every
// mutation check that bounding every aggregate against the store's snapshot
// (through Rebind, i.e. with the shared, scoped-invalidation decomposition
// cache) is bit-identical to a freshly constructed Engine over the same PC
// multiset — at parallelism 1 and parallelism N.
func TestStoreMutationDifferential(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(20260727))
	store := NewStore(s)
	queries := mutationQueries(s)
	opts := Options{DisableFastPath: true}
	e := NewEngine(store, nil, opts)

	var ids []PCID
	steps := 14
	if testing.Short() {
		steps = 6
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ids) < 2: // add
			got, err := store.AddPCs(randPC(rng, s))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, got...)
		case op == 1: // remove
			i := rng.Intn(len(ids))
			if err := store.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		default: // replace (tighten in place)
			if err := store.Replace(ids[rng.Intn(len(ids))], randPC(rng, s)); err != nil {
				t.Fatal(err)
			}
		}

		e = e.Rebind()
		if e.Snapshot().Epoch() != store.Epoch() {
			t.Fatalf("step %d: rebound engine at epoch %d, store at %d",
				step, e.Snapshot().Epoch(), store.Epoch())
		}

		// Reference: a fresh engine (fresh solver, cold cache) over the same
		// PC multiset, bounded sequentially.
		fresh := NewStore(s)
		fresh.MustAdd(store.PCs()...)
		fe := NewEngine(fresh, nil, opts)
		want, err := fe.BoundBatch(queries, BatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 4} {
			got, err := e.BoundBatch(queries, BatchOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d par=%d query %d (%v over %v): snapshot %+v != fresh %+v",
						step, par, i, queries[i].Agg, queries[i].Where, got[i], want[i])
				}
			}
		}
	}
	if st := e.CacheStats(); st.Retained == 0 {
		t.Errorf("a %d-step mutation stream retained no cache entries across epochs: %+v", steps, st)
	}
}

// TestScopedInvalidationRetainsUntouchedRegions pins down the cache
// contract: after a mutation, cached decompositions for regions the mutation
// cannot influence are retained (and produce identical ranges), while the
// touched region is invalidated and recomputed against the new constraints.
func TestScopedInvalidationRetainsUntouchedRegions(t *testing.T) {
	s := salesSchema()
	store := NewStore(s)
	// Two overlapping PCs in the "early" region and two in the "late" one.
	earlyA := MustPC(predicate.NewBuilder(s).Range("utc", 0, 8).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 40)}, 1, 9)
	earlyB := MustPC(predicate.NewBuilder(s).Range("utc", 4, 12).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 60)}, 0, 7)
	lateA := MustPC(predicate.NewBuilder(s).Range("utc", 18, 26).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 50)}, 2, 8)
	lateB := MustPC(predicate.NewBuilder(s).Range("utc", 22, 30).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 80)}, 0, 6)
	ids, err := store.AddPCs(earlyA, earlyB, lateA, lateB)
	if err != nil {
		t.Fatal(err)
	}

	early := predicate.NewBuilder(s).Range("utc", 0, 12).Build()
	late := predicate.NewBuilder(s).Range("utc", 18, 30).Build()
	e := NewEngine(store, nil, Options{DisableFastPath: true})

	earlyBefore, err := e.Sum("price", early)
	if err != nil {
		t.Fatal(err)
	}
	lateBefore, err := e.Sum("price", late)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("expected 2 cold misses, got %+v", st)
	}

	// Tighten lateB: only the late region's decomposition may be dropped.
	tightened := MustPC(predicate.NewBuilder(s).Range("utc", 22, 30).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 20)}, 0, 4)
	if err := store.Replace(ids[3], tightened); err != nil {
		t.Fatal(err)
	}
	re := e.Rebind()

	earlyAfter, err := re.Sum("price", early)
	if err != nil {
		t.Fatal(err)
	}
	if earlyAfter != earlyBefore {
		t.Errorf("untouched region changed: %+v -> %+v", earlyBefore, earlyAfter)
	}
	st := re.CacheStats()
	if st.Retained != 1 {
		t.Errorf("untouched region not retained across the mutation: %+v", st)
	}
	if st.Invalidated != 0 {
		t.Errorf("invalidation before the touched region was queried: %+v", st)
	}

	lateAfter, err := re.Sum("price", late)
	if err != nil {
		t.Fatal(err)
	}
	if lateAfter.Hi >= lateBefore.Hi {
		t.Errorf("tightened region did not narrow: %+v -> %+v", lateBefore, lateAfter)
	}
	st = re.CacheStats()
	if st.Invalidated != 1 {
		t.Errorf("touched region not invalidated: %+v", st)
	}

	// The recomputed late range must equal a fresh engine's.
	fresh := NewStore(s)
	fresh.MustAdd(store.PCs()...)
	want, err := NewEngine(fresh, nil, Options{DisableFastPath: true}).Sum("price", late)
	if err != nil {
		t.Fatal(err)
	}
	if lateAfter != want {
		t.Errorf("recomputed range %+v != fresh engine %+v", lateAfter, want)
	}
}

// TestPinnedEngineStaysCacheable checks that an engine pinned to an old
// snapshot does not permanently lose caching for a region mutated after its
// epoch: its recomputed decomposition must be admitted alongside the
// frontier entry, so repeated pinned queries hit (the auditor pattern).
func TestPinnedEngineStaysCacheable(t *testing.T) {
	s := salesSchema()
	store := NewStore(s)
	ids, err := store.AddPCs(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 40)}, 1, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 60)}, 0, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	region := predicate.NewBuilder(s).Range("utc", 0, 15).Build()
	pinned := NewEngine(store, nil, Options{DisableFastPath: true})
	want, err := pinned.Sum("price", region)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the region and warm the frontier's cache entry for it.
	if err := store.Replace(ids[0], MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 30)}, 1, 8)); err != nil {
		t.Fatal(err)
	}
	frontier := pinned.Rebind()
	if _, err := frontier.Sum("price", region); err != nil {
		t.Fatal(err)
	}

	// The pinned engine's entry stays exact over its own epoch interval, so
	// it keeps hitting alongside the frontier's fresh entry.
	if _, err := pinned.Sum("price", region); err != nil {
		t.Fatal(err)
	}
	before := pinned.CacheStats()
	got, err := pinned.Sum("price", region)
	if err != nil {
		t.Fatal(err)
	}
	after := pinned.CacheStats()
	if after.Hits == before.Hits {
		t.Errorf("pinned engine's recomputed entry was not admitted to the cache: before=%+v after=%+v", before, after)
	}
	if got != want {
		t.Errorf("pinned engine drifted: %+v != %+v", got, want)
	}
	// And the frontier must still hit its own entry too.
	fb := frontier.CacheStats()
	if _, err := frontier.Sum("price", region); err != nil {
		t.Fatal(err)
	}
	if fa := frontier.CacheStats(); fa.Hits == fb.Hits {
		t.Errorf("frontier entry evicted by the pinned engine's insert: %+v -> %+v", fb, fa)
	}

	// Steady mutation churn: each round the frontier repopulates (evicting
	// the per-key LRU interval), and the actively-reading pinned engine must
	// keep hitting — its entry is re-stamped on every hit, so eviction takes
	// the dead old frontier interval instead. Read once first so the pinned
	// entry's LRU stamp reflects an active reader.
	if _, err := pinned.Sum("price", region); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := store.Replace(ids[0], MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, float64(25-round))}, 1, 8)); err != nil {
			t.Fatal(err)
		}
		frontier = frontier.Rebind()
		if _, err := frontier.Sum("price", region); err != nil {
			t.Fatal(err)
		}
		hb := pinned.CacheStats().Hits
		got, err := pinned.Sum("price", region)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: pinned engine drifted: %+v != %+v", round, got, want)
		}
		if pinned.CacheStats().Hits == hb {
			t.Errorf("round %d: pinned engine's entry evicted under frontier churn", round)
		}
	}
}

// TestStorePCsCopy is the regression test for the old Set.PCs leak: the
// returned slice must be a copy, so mutating it cannot corrupt engine-owned
// state.
func TestStorePCsCopy(t *testing.T) {
	s := salesSchema()
	store := NewStore(s)
	store.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 1, 5),
	)
	snap := store.Snapshot()

	leaked := store.PCs()
	leaked[0].KHi = 99999
	leaked[0].Name = "mutated"
	if got := store.PCs()[0]; got.KHi != 5 || got.Name != "" {
		t.Errorf("store state mutated through PCs(): %+v", got)
	}
	// The copy must be deep: the Values box is a slice, and writing through
	// it must not reach the store, the snapshot, or cached decompositions.
	pi := s.MustIndex("price")
	leaked[0].Values[pi] = domain.NewInterval(0, 1e9)
	if got := store.PCs()[0].Values[pi]; got != domain.NewInterval(0, 100) {
		t.Errorf("store value box mutated through PCs(): %v", got)
	}
	if got := snap.PCs()[0].Values[pi]; got != domain.NewInterval(0, 100) {
		t.Errorf("snapshot value box mutated through store.PCs(): %v", got)
	}
	sl := snap.PCs()
	sl[0].KLo = 42
	sl[0].Values[pi] = domain.NewInterval(5, 6)
	if got := snap.PCs()[0]; got.KLo != 1 || got.Values[pi] != domain.NewInterval(0, 100) {
		t.Errorf("snapshot state mutated through PCs(): %+v", got)
	}
	// Get returns an unaliased copy too.
	gp, ok := store.Get(store.IDs()[0])
	if !ok {
		t.Fatal("Get failed")
	}
	gp.Values[pi] = domain.NewInterval(7, 8)
	if got := store.PCs()[0].Values[pi]; got != domain.NewInterval(0, 100) {
		t.Errorf("store value box mutated through Get(): %v", got)
	}
	// Ingest is defensive as well: mutating a PC after Add must not reach
	// the store.
	ext := MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(0, 50)}, 0, 2)
	extIDs, err := store.AddPCs(ext)
	if err != nil {
		t.Fatal(err)
	}
	ext.Values[pi] = domain.NewInterval(0, 1e9)
	if got, _ := store.Get(extIDs[0]); got.Values[pi] != domain.NewInterval(0, 50) {
		t.Errorf("store value box aliased with caller's PC after Add: %v", got.Values[pi])
	}
	idsA := store.IDs()
	idsA[0] = 777
	if store.IDs()[0] == 777 {
		t.Error("store ids mutated through IDs()")
	}
}

// TestStoreCopyOnWriteSnapshots checks the COW mechanics: repeated
// Snapshot() calls between mutations return one object, mutations detach
// without perturbing outstanding snapshots, Replace keeps ids while Remove
// retires them, and errors leave the epoch untouched.
func TestStoreCopyOnWriteSnapshots(t *testing.T) {
	s := salesSchema()
	store := NewStore(s)
	pcA := MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(), nil, 0, 5)
	pcB := MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(), nil, 1, 3)
	ids, err := store.AddPCs(pcA, pcB)
	if err != nil {
		t.Fatal(err)
	}
	if store.Epoch() != 1 {
		t.Fatalf("epoch after one Add call = %d, want 1", store.Epoch())
	}

	snap1 := store.Snapshot()
	if snap2 := store.Snapshot(); snap2 != snap1 {
		t.Error("Snapshot() between mutations returned distinct objects")
	}
	if snap1.Len() != 2 || snap1.Epoch() != 1 {
		t.Fatalf("snapshot: len=%d epoch=%d", snap1.Len(), snap1.Epoch())
	}

	if err := store.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if store.Epoch() != 2 || store.Len() != 1 {
		t.Fatalf("after remove: epoch=%d len=%d", store.Epoch(), store.Len())
	}
	// Outstanding snapshot unperturbed.
	if snap1.Len() != 2 || snap1.PCs()[0].KHi != 5 {
		t.Errorf("snapshot perturbed by Remove: %+v", snap1.PCs())
	}
	if store.Snapshot() == snap1 {
		t.Error("Snapshot() after mutation returned the stale snapshot")
	}

	// Replace keeps the id in place.
	tight := MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(), nil, 2, 2)
	if err := store.Replace(ids[1], tight); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get(ids[1])
	if !ok || got.KLo != 2 || got.KHi != 2 {
		t.Errorf("Get after Replace: %+v ok=%v", got, ok)
	}
	if _, ok := store.Get(ids[0]); ok {
		t.Error("removed id still resolvable")
	}

	// Unknown ids and invalid PCs are errors and do not bump the epoch.
	before := store.Epoch()
	if err := store.Remove(ids[0]); err == nil {
		t.Error("Remove of retired id succeeded")
	}
	if err := store.Replace(PCID(999), tight); err == nil {
		t.Error("Replace of unknown id succeeded")
	}
	other := salesSchema()
	if err := store.Replace(ids[1], MustPC(predicate.True(other), nil, 0, 5)); err == nil {
		t.Error("Replace with foreign-schema PC succeeded")
	}
	if _, err := store.AddPCs(PC{}); err == nil {
		t.Error("AddPCs with nil predicate succeeded")
	}
	if store.Epoch() != before {
		t.Errorf("failed mutations bumped the epoch: %d -> %d", before, store.Epoch())
	}
}

// TestStoreClosedIncrementalMatchesSnapshot differentially tests the
// store-level incremental closure tracker against the stateless
// Snapshot.Closed reference across a mutation stream.
func TestStoreClosedIncrementalMatchesSnapshot(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(99))
	store := NewStore(s)
	solver := sat.New(s)
	refSolver := sat.New(s)
	var ids []PCID

	check := func(step int) {
		t.Helper()
		inc := store.Closed(solver)
		ref := store.Snapshot().Closed(refSolver)
		if inc != ref {
			t.Fatalf("step %d: incremental Closed=%v, snapshot reference=%v (len=%d)",
				step, inc, ref, store.Len())
		}
		if w, ok := store.Uncovered(solver); ok {
			if inc {
				t.Fatalf("step %d: closed store returned witness %v", step, w)
			}
			for _, pc := range store.PCs() {
				if pc.Pred.Eval(w) {
					t.Fatalf("step %d: witness %v covered by %v", step, w, pc)
				}
			}
		} else if !inc {
			t.Fatalf("step %d: open store returned no witness", step)
		}
	}

	check(-1)
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ids) < 2:
			got, err := store.AddPCs(randPC(rng, s))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, got...)
		case op == 1:
			i := rng.Intn(len(ids))
			if err := store.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		default:
			if err := store.Replace(ids[rng.Intn(len(ids))], randPC(rng, s)); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
	// Force full coverage and check the closed answer too.
	if _, err := store.AddPCs(MustPC(predicate.True(s), nil, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if !store.Closed(solver) || !store.Snapshot().Closed(refSolver) {
		t.Error("store with a True predicate not closed")
	}
}

// bruteOverlapPairs is the from-scratch oracle for the store's overlap
// count: every unordered predicate pair whose boxes intersect on the schema
// lattice.
func bruteOverlapPairs(sn *Snapshot) int {
	n := 0
	for i := range sn.pcs {
		for j := i + 1; j < len(sn.pcs); j++ {
			if !sn.pcs[i].Pred.Box().Intersect(sn.pcs[j].Pred.Box()).EmptyFor(sn.schema) {
				n++
			}
		}
	}
	return n
}

// sparsePC draws a narrow constraint (a utc cell or two, optionally one
// branch, endpoints sometimes fractional) so a handful of them is disjoint
// about as often as not, integer holes like utc∈[3.2, 3.8] included.
func sparsePC(rng *rand.Rand, s *domain.Schema) PC {
	lo := float64(rng.Intn(12)) + []float64{0, 0, 0.2, 0.5}[rng.Intn(4)]
	hi := lo + []float64{0, 0.6, 1, 2}[rng.Intn(4)]
	b := predicate.NewBuilder(s).Range("utc", lo, hi)
	if rng.Intn(3) > 0 {
		b = b.Eq("branch", float64(rng.Intn(3)))
	}
	return MustPC(b.Build(), map[string]domain.Interval{"price": domain.NewInterval(0, 10)}, 0, 1+rng.Intn(3))
}

// TestStoreOverlapCount checks the overlap count the store keeps on its
// commit path against bruteOverlapPairs after every mutation, through every
// entry point — AddPCs (several constraints per call), Remove, Replace,
// ApplyRecord and ApplyReplicated — on a fresh store and on a restored one.
// The restored store first replays records uncounted and counts once on its
// first Snapshot.
func TestStoreOverlapCount(t *testing.T) {
	s := salesSchema()
	for _, restored := range []bool{false, true} {
		name := "new"
		if restored {
			name = "restored"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			store := NewStore(s)
			var ids []PCID
			var nextID PCID
			if restored {
				seed := NewStore(s)
				var pcs []PC
				for i := 0; i < 5; i++ {
					pcs = append(pcs, sparsePC(rng, s))
				}
				seed.MustAdd(pcs...)
				sn := seed.Snapshot()
				var err error
				if store, err = RestoreStore(s, sn.PCs(), sn.IDs(), sn.Epoch(), sn.NextID()); err != nil {
					t.Fatal(err)
				}
				ids, nextID = sn.IDs(), sn.NextID()
			}

			// mutate applies one random mutation, directly or as a record
			// through ApplyRecord or ApplyReplicated.
			mutate := func() {
				t.Helper()
				kind := MutAdd
				if len(ids) >= 2 {
					kind = MutKind(1 + rng.Intn(3))
				}
				if len(ids) > 8 {
					kind = MutRemove
				}
				rec := MutationRecord{Epoch: store.Epoch() + 1, Kind: kind}
				switch kind {
				case MutAdd:
					for n := 2 + rng.Intn(3); n > 0; n-- {
						nextID++
						rec.IDs = append(rec.IDs, nextID)
						rec.PCs = append(rec.PCs, sparsePC(rng, s))
					}
					ids = append(ids, rec.IDs...)
				case MutRemove:
					i := rng.Intn(len(ids))
					rec.IDs = []PCID{ids[i]}
					ids = append(ids[:i], ids[i+1:]...)
				case MutReplace:
					rec.IDs = []PCID{ids[rng.Intn(len(ids))]}
					rec.PCs = []PC{sparsePC(rng, s)}
				}
				var err error
				switch mode := rng.Intn(3); {
				case mode == 1:
					err = store.ApplyRecord(rec)
				case mode == 2:
					err = store.ApplyReplicated(rec)
				case kind == MutAdd:
					var got []PCID
					got, err = store.AddPCs(rec.PCs...)
					for i := range got {
						if got[i] != rec.IDs[i] {
							t.Fatalf("AddPCs assigned id %d, want %d", got[i], rec.IDs[i])
						}
					}
				case kind == MutRemove:
					err = store.Remove(rec.IDs[0])
				default:
					err = store.Replace(rec.IDs[0], rec.PCs[0])
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			if restored {
				for step := 0; step < 6; step++ {
					mutate()
				}
				store.mu.RLock()
				uncounted := store.overlaps < 0
				store.mu.RUnlock()
				if !uncounted {
					t.Fatal("mutations on a restored store counted overlaps before any Snapshot")
				}
			}
			seen := map[bool]int{}
			for step := 0; step < 300; step++ {
				sn := store.Snapshot()
				want := bruteOverlapPairs(sn)
				if got := sn.OverlapPairs(); got != want {
					t.Fatalf("step %d: store counts %d overlapping pairs, oracle %d", step, got, want)
				}
				if sn.Disjoint() != (want == 0) {
					t.Fatalf("step %d: Disjoint() = %v with %d overlapping pairs", step, sn.Disjoint(), want)
				}
				seen[sn.Disjoint()]++
				mutate()
			}
			if seen[true] < 30 || seen[false] < 30 {
				t.Fatalf("generator too one-sided: %d disjoint snapshots, %d overlapping", seen[true], seen[false])
			}
		})
	}
}

// TestStoreConcurrentWritersAndReaders hammers a store with mutating writers
// while readers bound queries against pinned snapshots and freshly rebound
// engines; run under -race this exercises the COW path, the shared scoped
// cache, and the snapshot isolation guarantee (pinned results never change).
func TestStoreConcurrentWritersAndReaders(t *testing.T) {
	s := salesSchema()
	store := NewStore(s)
	store.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 40)}, 2, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(3, 60)}, 1, 7),
	)
	pinned := NewEngine(store, nil, Options{DisableFastPath: true})
	queries := mutationQueries(s)[:10]
	want, err := pinned.BoundBatch(queries, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	rngMu := sync.Mutex{}
	rng := rand.New(rand.NewSource(5))
	nextPC := func() PC {
		rngMu.Lock()
		defer rngMu.Unlock()
		return randPC(rng, s)
	}

	// Writers: add/replace/remove concurrently.
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		writers.Add(1)
		go func() {
			defer wg.Done()
			defer writers.Done()
			var mine []PCID
			for i := 0; i < 30; i++ {
				ids, err := store.AddPCs(nextPC())
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, ids...)
				if len(mine) > 2 {
					if err := store.Replace(mine[0], nextPC()); err != nil {
						t.Error(err)
						return
					}
					if err := store.Remove(mine[1]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[2:]
				}
			}
		}()
	}
	// Readers on the pinned engine: results must stay bit-identical.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := pinned.BoundBatch(queries, BatchOptions{Parallelism: 2})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("pinned engine drifted on query %d: %+v != %+v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	// A rebinder: continuously rebinds and bounds whatever state it sees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := pinned
		for i := 0; i < 10; i++ {
			e = e.Rebind()
			if _, err := e.BoundBatch(queries[:5], BatchOptions{Parallelism: 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// A closure checker: repeatedly syncs the incremental tracker (delta
	// path, one shared solver) while writers enqueue ops concurrently. The
	// strict equality check against the stateless reference only applies
	// when no mutation landed during the sequence (same epoch before and
	// after); racing iterations still exercise closureMu/opsMu under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		solver := sat.New(s)
		refSolver := sat.New(s)
		for i := 0; i < 15; i++ {
			e0 := store.Epoch()
			inc := store.Closed(solver)
			ref := store.Snapshot().Closed(refSolver)
			if store.Epoch() == e0 && inc != ref {
				t.Error("incremental closure diverged from snapshot reference")
				return
			}
		}
	}()

	// Release the readers once the writers' mutation stream has run dry, so
	// every reader iteration overlapped live mutations.
	writers.Wait()
	close(stop)
	wg.Wait()
}
