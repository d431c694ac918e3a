package core

import (
	"math"
	"sync"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// TestNegativeValueDomains exercises SUM/AVG with value constraints that
// cross zero: the upper bound must avoid allocating negative-value rows,
// and the lower bound must exploit them.
func TestNegativeValueDomains(t *testing.T) {
	s := domain.NewSchema(
		domain.Attr{Name: "k", Kind: domain.Integral, Domain: domain.NewInterval(0, 3)},
		domain.Attr{Name: "delta", Kind: domain.Continuous, Domain: domain.NewInterval(-100, 100)},
	)
	set := NewSet(s)
	set.MustAdd(
		// Losses: forced 2-5 rows in [-50, -10].
		MustPC(predicate.NewBuilder(s).Eq("k", 0).Build(),
			map[string]domain.Interval{"delta": domain.NewInterval(-50, -10)}, 2, 5),
		// Gains: optional rows in [5, 30].
		MustPC(predicate.NewBuilder(s).Eq("k", 1).Build(),
			map[string]domain.Interval{"delta": domain.NewInterval(5, 30)}, 0, 4),
	)
	for _, disableFast := range []bool{false, true} {
		e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		r, err := e.Sum("delta", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Upper: 2 forced losses at -10 plus 4 gains at 30 = 100.
		if math.Abs(r.Hi-100) > 1e-6 {
			t.Errorf("fast=%v: SUM upper = %v, want 100", !disableFast, r.Hi)
		}
		// Lower: 5 losses at -50, no gains = -250.
		if math.Abs(r.Lo-(-250)) > 1e-6 {
			t.Errorf("fast=%v: SUM lower = %v, want -250", !disableFast, r.Lo)
		}
		avg, err := e.Avg("delta", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Min avg: all 5 rows at -50. Max avg: (2·(-10) + 4·30)/6 = 16.67.
		if math.Abs(avg.Lo-(-50)) > 1e-3 {
			t.Errorf("fast=%v: AVG lower = %v, want -50", !disableFast, avg.Lo)
		}
		if math.Abs(avg.Hi-100.0/6.0) > 1e-3 {
			t.Errorf("fast=%v: AVG upper = %v, want %v", !disableFast, avg.Hi, 100.0/6.0)
		}
	}
}

// TestQueryConstrainsAggregateAttribute pushes the query predicate down onto
// the aggregated attribute itself: cell value projections must clip.
func TestQueryConstrainsAggregateAttribute(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(MustPC(predicate.True(s),
		map[string]domain.Interval{"price": domain.NewInterval(0, 500)}, 0, 10))
	e := NewEngine(set, nil, Options{})
	q := predicate.NewBuilder(s).Range("price", 100, 200).Build()
	r, err := e.Sum("price", q)
	if err != nil {
		t.Fatal(err)
	}
	// Rows counted by the query have price in [100, 200]: at most 10·200.
	if r.Hi != 2000 {
		t.Errorf("SUM upper = %v, want 2000 (query clips the value range)", r.Hi)
	}
	if r.Lo != 0 {
		t.Errorf("SUM lower = %v, want 0 (no forced rows)", r.Lo)
	}
	mx, err := e.Max("price", q)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Hi != 200 {
		t.Errorf("MAX upper = %v, want 200", mx.Hi)
	}
}

// TestMILPNodeBudgetKeepsBoundsSound forces a tiny branch-and-bound budget:
// endpoints may lose exactness but must still contain the truth.
func TestMILPNodeBudgetKeepsBoundsSound(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 10).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 7)}, 3, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 15).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(2, 11)}, 4, 8),
		MustPC(predicate.NewBuilder(s).Range("utc", 8, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 5)}, 2, 6),
	)
	exact := NewEngine(set, nil, Options{DisableFastPath: true})
	re, err := exact.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	tight := NewEngine(set, nil, Options{DisableFastPath: true})
	tight.opts.MILP.MaxNodes = 2
	rt, err := tight.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hi < re.Hi-1e-9 || rt.Lo > re.Lo+1e-9 {
		t.Errorf("budgeted range %v does not contain exact %v", rt, re)
	}
}

// TestEngineConcurrentQueries checks the engine is safe for concurrent use
// (the SAT solver uses atomics; decomposition state is per-query).
func TestEngineConcurrentQueries(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 15).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 0, 50),
		MustPC(predicate.NewBuilder(s).Range("utc", 10, 30).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 200)}, 5, 60),
	)
	e := NewEngine(set, nil, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := predicate.NewBuilder(s).Range("utc", float64(g%10), float64(g%10+8)).Build()
			for i := 0; i < 5; i++ {
				if _, err := e.Sum("price", q); err != nil {
					errs <- err
					return
				}
				if _, err := e.Count(q); err != nil {
					errs <- err
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

// TestZeroWidthFrequency (klo == khi == 0) constraints contribute value
// information without allowing rows.
func TestZeroWidthFrequency(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 0, 0),
		MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 50)}, 1, 2),
	)
	e := NewEngine(set, nil, Options{})
	r, err := e.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hi != 2 || r.Lo != 1 {
		t.Errorf("COUNT = %v, want [1, 2] (branch 0 admits no rows)", r)
	}
	sum, err := e.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hi != 100 {
		t.Errorf("SUM upper = %v, want 100 (2 rows at 50)", sum.Hi)
	}
}
