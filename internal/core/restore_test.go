package core

import (
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/domain"
)

// equalStores fails the test unless the two stores are bit-identical in
// everything replay is supposed to reproduce: epoch, id allocator, stable
// ids, and every constraint field (value boxes compared bitwise).
func equalStores(t *testing.T, want, got *Store) {
	t.Helper()
	wsn, gsn := want.Snapshot(), got.Snapshot()
	if wsn.Epoch() != gsn.Epoch() {
		t.Fatalf("epoch %d != %d", gsn.Epoch(), wsn.Epoch())
	}
	if wsn.NextID() != gsn.NextID() {
		t.Fatalf("next id %d != %d", gsn.NextID(), wsn.NextID())
	}
	wids, gids := wsn.IDs(), gsn.IDs()
	if len(wids) != len(gids) {
		t.Fatalf("%d constraints, want %d", len(gids), len(wids))
	}
	wpcs, gpcs := wsn.PCs(), gsn.PCs()
	for i := range wids {
		if wids[i] != gids[i] {
			t.Fatalf("constraint %d: id %d != %d", i, gids[i], wids[i])
		}
		w, g := wpcs[i], gpcs[i]
		if w.Name != g.Name || w.KLo != g.KLo || w.KHi != g.KHi {
			t.Fatalf("constraint %d: %+v != %+v", i, g, w)
		}
		wb, gb := w.Pred.Box(), g.Pred.Box()
		for d := range w.Values {
			if math.Float64bits(w.Values[d].Lo) != math.Float64bits(g.Values[d].Lo) ||
				math.Float64bits(w.Values[d].Hi) != math.Float64bits(g.Values[d].Hi) {
				t.Fatalf("constraint %d dim %d: values %v != %v", i, d, g.Values[d], w.Values[d])
			}
			if math.Float64bits(wb[d].Lo) != math.Float64bits(gb[d].Lo) ||
				math.Float64bits(wb[d].Hi) != math.Float64bits(gb[d].Hi) {
				t.Fatalf("constraint %d dim %d: predicate %v != %v", i, d, gb[d], wb[d])
			}
		}
	}
}

// mutateRandomly performs one random mutation, returning the updated live-id
// slice. Identical call sequences on identical stores produce identical
// transitions, which is what the replay tests lean on.
func mutateRandomly(t *testing.T, rng *rand.Rand, s *domain.Schema, store *Store, ids []PCID) []PCID {
	t.Helper()
	switch op := rng.Intn(4); {
	case op <= 1 || len(ids) < 2: // add (batch of 1-2)
		pcs := make([]PC, 1+rng.Intn(2))
		for i := range pcs {
			pcs[i] = randPC(rng, s)
		}
		got, err := store.AddPCs(pcs...)
		if err != nil {
			t.Fatal(err)
		}
		return append(ids, got...)
	case op == 2: // remove
		i := rng.Intn(len(ids))
		if err := store.Remove(ids[i]); err != nil {
			t.Fatal(err)
		}
		return append(ids[:i], ids[i+1:]...)
	default: // replace
		i := rng.Intn(len(ids))
		if err := store.Replace(ids[i], randPC(rng, s)); err != nil {
			t.Fatal(err)
		}
		return ids
	}
}

// TestCommitHookReplay drives a random mutation stream with a commit hook
// attached and replays the captured records onto a second store: the replica
// must be bit-identical after every single record, and keep being so when
// both stores mutate onward — the property the WAL's recovery path rests on.
func TestCommitHookReplay(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(20260808))
	primary, replica := NewStore(s), NewStore(s)
	var recs []MutationRecord
	primary.SetCommitHook(func(rec MutationRecord) { recs = append(recs, rec) })

	var ids []PCID
	for step := 0; step < 40; step++ {
		ids = mutateRandomly(t, rng, s, primary, ids)
		for _, rec := range recs {
			if err := replica.ApplyRecord(rec); err != nil {
				t.Fatalf("step %d: replay: %v", step, err)
			}
		}
		recs = recs[:0]
		equalStores(t, primary, replica)
	}

	// Post-replay divergence check: the replica's id allocator must continue
	// exactly where the primary's does.
	primary.SetCommitHook(nil)
	pids, err := primary.AddPCs(randPC(rng, s))
	if err != nil {
		t.Fatal(err)
	}
	rids, err := replica.AddPCs(randPC(rng, s))
	if err != nil {
		t.Fatal(err)
	}
	if pids[0] != rids[0] {
		t.Fatalf("diverged id allocation after replay: %d vs %d", rids[0], pids[0])
	}
}

// TestRestoreStoreRoundTrip captures a snapshot's state, restores a store
// from it, and checks the restored store is bit-identical and evolves
// identically under further mutations.
func TestRestoreStoreRoundTrip(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(7))
	store := NewStore(s)
	var ids []PCID
	for step := 0; step < 20; step++ {
		ids = mutateRandomly(t, rng, s, store, ids)
	}
	sn := store.Snapshot()
	restored, err := RestoreStore(s, sn.PCs(), sn.IDs(), sn.Epoch(), sn.NextID())
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, store, restored)

	// Identical mutation streams on both sides stay identical (same epochs,
	// same assigned ids), including through removes of the max id.
	idsA := append([]PCID(nil), ids...)
	idsB := append([]PCID(nil), ids...)
	for step := 0; step < 15; step++ {
		idsA = mutateRandomly(t, rand.New(rand.NewSource(int64(step))), s, store, idsA)
		idsB = mutateRandomly(t, rand.New(rand.NewSource(int64(step))), s, restored, idsB)
		equalStores(t, store, restored)
	}
}

// TestApplyRecordRejectsGapsAndMalformed pins the replay-integrity errors:
// out-of-order epochs, id collisions, and malformed payloads must all be
// refused without mutating the store.
func TestApplyRecordRejectsGapsAndMalformed(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(3))
	store := NewStore(s)
	ids, err := store.AddPCs(randPC(rng, s))
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := store.Epoch()
	pc := randPC(rng, s)

	cases := []struct {
		name string
		rec  MutationRecord
	}{
		{"epoch gap", MutationRecord{Epoch: epochBefore + 2, Kind: MutAdd, IDs: []PCID{9}, PCs: []PC{pc}}},
		{"stale epoch", MutationRecord{Epoch: epochBefore, Kind: MutAdd, IDs: []PCID{9}, PCs: []PC{pc}}},
		{"id reuse", MutationRecord{Epoch: epochBefore + 1, Kind: MutAdd, IDs: []PCID{ids[0]}, PCs: []PC{pc}}},
		{"id zero", MutationRecord{Epoch: epochBefore + 1, Kind: MutAdd, IDs: []PCID{0}, PCs: []PC{pc}}},
		{"duplicate ids", MutationRecord{Epoch: epochBefore + 1, Kind: MutAdd, IDs: []PCID{7, 7}, PCs: []PC{pc, pc}}},
		{"add arity", MutationRecord{Epoch: epochBefore + 1, Kind: MutAdd, IDs: []PCID{7, 8}, PCs: []PC{pc}}},
		{"remove unknown", MutationRecord{Epoch: epochBefore + 1, Kind: MutRemove, IDs: []PCID{42}}},
		{"remove arity", MutationRecord{Epoch: epochBefore + 1, Kind: MutRemove, IDs: []PCID{ids[0]}, PCs: []PC{pc}}},
		{"replace unknown", MutationRecord{Epoch: epochBefore + 1, Kind: MutReplace, IDs: []PCID{42}, PCs: []PC{pc}}},
		{"unknown kind", MutationRecord{Epoch: epochBefore + 1, Kind: MutKind(99), IDs: []PCID{1}}},
	}
	for _, tc := range cases {
		if err := store.ApplyRecord(tc.rec); err == nil {
			t.Errorf("%s: ApplyRecord accepted %+v", tc.name, tc.rec)
		}
		if store.Epoch() != epochBefore {
			t.Fatalf("%s: rejected record mutated the store (epoch %d -> %d)", tc.name, epochBefore, store.Epoch())
		}
	}
}

// TestRestoreStoreValidation pins the restore-time consistency checks.
func TestRestoreStoreValidation(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(5))
	pc := randPC(rng, s)
	if _, err := RestoreStore(s, []PC{pc}, []PCID{1, 2}, 3, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RestoreStore(s, []PC{pc}, []PCID{0}, 3, 2); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := RestoreStore(s, []PC{pc}, []PCID{5}, 3, 2); err == nil {
		t.Error("id above high-water accepted")
	}
	if _, err := RestoreStore(s, []PC{pc, pc}, []PCID{1, 1}, 3, 2); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := RestoreStore(s, []PC{pc}, []PCID{1}, 3, 2); err != nil {
		t.Errorf("valid restore rejected: %v", err)
	}
}
