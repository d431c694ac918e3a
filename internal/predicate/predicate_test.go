package predicate

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pcbound/internal/domain"
)

func testSchema() *domain.Schema {
	return domain.NewSchema(
		domain.Attr{Name: "price", Kind: domain.Continuous, Domain: domain.NewInterval(0, 1000)},
		domain.Attr{Name: "branch", Kind: domain.Integral, Domain: domain.NewInterval(0, 4)},
		domain.Attr{Name: "utc", Kind: domain.Integral, Domain: domain.NewInterval(0, 1e9)},
	)
}

func TestTrueEvalsEverything(t *testing.T) {
	s := testSchema()
	p := True(s)
	rows := []domain.Row{{0, 0, 0}, {999, 4, 5}, {1000, 0, 1e9}}
	for _, r := range rows {
		if !p.Eval(r) {
			t.Errorf("TRUE rejected %v", r)
		}
	}
	if p.String() != "TRUE" {
		t.Errorf("String = %q", p.String())
	}
	if p.IsEmpty() {
		t.Error("TRUE is empty")
	}
}

func TestBuilderRangeEqEval(t *testing.T) {
	s := testSchema()
	p := NewBuilder(s).Range("price", 0, 149.99).Eq("branch", 1).Build()
	tests := []struct {
		row  domain.Row
		want bool
	}{
		{domain.Row{100, 1, 5}, true},
		{domain.Row{149.99, 1, 5}, true},
		{domain.Row{150, 1, 5}, false},
		{domain.Row{100, 2, 5}, false},
		{domain.Row{0, 1, 0}, true},
	}
	for _, tt := range tests {
		if got := p.Eval(tt.row); got != tt.want {
			t.Errorf("Eval(%v) = %v, want %v", tt.row, got, tt.want)
		}
	}
}

func TestBuilderLtGtIntegral(t *testing.T) {
	s := testSchema()
	// branch < 3 on an integral attribute means branch <= 2.
	p := NewBuilder(s).Lt("branch", 3).Build()
	if !p.Eval(domain.Row{0, 2, 0}) || p.Eval(domain.Row{0, 3, 0}) {
		t.Error("Lt on integral attribute wrong")
	}
	q := NewBuilder(s).Gt("branch", 1).Build()
	if !q.Eval(domain.Row{0, 2, 0}) || q.Eval(domain.Row{0, 1, 0}) {
		t.Error("Gt on integral attribute wrong")
	}
	// Fractional thresholds: branch < 2.5 means branch <= 2.
	r := NewBuilder(s).Lt("branch", 2.5).Build()
	if r.Interval("branch").Hi != 2 {
		t.Errorf("Lt(2.5) Hi = %v, want 2", r.Interval("branch").Hi)
	}
}

func TestBuilderLtGtContinuous(t *testing.T) {
	s := testSchema()
	p := NewBuilder(s).Lt("price", 100).Build()
	if p.Eval(domain.Row{100, 0, 0}) {
		t.Error("price < 100 accepted 100")
	}
	if !p.Eval(domain.Row{99.999999, 0, 0}) {
		t.Error("price < 100 rejected 99.999999")
	}
	q := NewBuilder(s).Gt("price", 100).Build()
	if q.Eval(domain.Row{100, 0, 0}) || !q.Eval(domain.Row{100.000001, 0, 0}) {
		t.Error("price > 100 boundary wrong")
	}
}

func TestAndIntersects(t *testing.T) {
	s := testSchema()
	a := NewBuilder(s).Range("price", 0, 200).Build()
	b := NewBuilder(s).Range("price", 100, 300).Build()
	c := a.And(b)
	iv := c.Interval("price")
	if iv.Lo != 100 || iv.Hi != 200 {
		t.Errorf("And interval = %v", iv)
	}
}

func TestAndDifferentSchemasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	True(testSchema()).And(True(testSchema()))
}

func TestImpliesAndOverlaps(t *testing.T) {
	s := testSchema()
	narrow := NewBuilder(s).Range("price", 10, 20).Eq("branch", 1).Build()
	wide := NewBuilder(s).Range("price", 0, 100).Build()
	if !narrow.Implies(wide) {
		t.Error("narrow should imply wide")
	}
	if wide.Implies(narrow) {
		t.Error("wide should not imply narrow")
	}
	if !narrow.Overlaps(wide) {
		t.Error("expected overlap")
	}
	disjoint := NewBuilder(s).Range("price", 500, 600).Build()
	if narrow.Overlaps(disjoint) {
		t.Error("unexpected overlap")
	}
}

func TestOverlapsLatticeAware(t *testing.T) {
	s := testSchema()
	// branch in [1.2, 1.8] contains no integer; predicates overlap over the
	// reals but not on the lattice.
	a := NewBuilder(s).Range("branch", 0, 1.8).Build()
	b := NewBuilder(s).Range("branch", 1.2, 4).Build()
	if a.Overlaps(b) {
		t.Error("lattice-aware Overlaps should reject integer-free intersection")
	}
}

// TestOverlapsMatchesBoxIntersect checks Overlaps against the lattice
// emptiness of the intersected boxes, both ways round, and that it does
// not allocate.
func TestOverlapsMatchesBoxIntersect(t *testing.T) {
	s := testSchema()
	b := func() *Builder { return NewBuilder(s) }
	tests := []struct {
		name string
		p, q *P
		want bool
	}{
		{"nested", b().Range("price", 10, 20).Eq("branch", 1).Build(), b().Range("price", 0, 100).Build(), true},
		{"apart on price", b().Range("price", 0, 10).Build(), b().Range("price", 500, 600).Build(), false},
		{"touching endpoints", b().Range("price", 0, 10).Build(), b().Range("price", 10, 20).Build(), true},
		{"integer hole", b().Range("branch", 0.2, 0.8).Build(), b().Range("branch", 0, 4).Build(), false},
		{"integer-free intersection", b().Range("branch", 0, 1.8).Build(), b().Range("branch", 1.2, 4).Build(), false},
		{"shared integer", b().Range("branch", 0, 1).Build(), b().Range("branch", 1, 3).Build(), true},
		{"fractional ends around an integer", b().Range("utc", 5.5, 6.5).Build(), b().Range("utc", 6, 7).Build(), true},
		{"fractional ends between integers", b().Range("utc", 5.1, 5.9).Build(), b().Range("utc", 5, 6).Build(), false},
		{"continuous sliver", b().Range("price", 0.2, 0.8).Build(), b().Range("price", 0.5, 0.6).Build(), true},
		{"empty predicate", b().Range("price", 10, 5).Build(), True(s), false},
		{"meet on one attribute only", b().Range("price", 0, 10).Eq("branch", 1).Build(), b().Range("price", 5, 15).Eq("branch", 2).Build(), false},
		{"meet on every attribute", b().Range("price", 0, 10).Range("utc", 0, 3).Build(), b().Range("price", 5, 15).Range("utc", 3, 9).Build(), true},
	}
	for _, tc := range tests {
		oracle := !tc.p.Box().Intersect(tc.q.Box()).EmptyFor(s)
		if oracle != tc.want {
			t.Fatalf("%s: table says %v, box intersection says %v", tc.name, tc.want, oracle)
		}
		if got := tc.p.Overlaps(tc.q); got != tc.want {
			t.Errorf("%s: p.Overlaps(q) = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.q.Overlaps(tc.p); got != tc.want {
			t.Errorf("%s: q.Overlaps(p) = %v, want %v", tc.name, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { tc.p.Overlaps(tc.q) }); allocs != 0 {
			t.Errorf("%s: Overlaps allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}

func TestIsEmpty(t *testing.T) {
	s := testSchema()
	if NewBuilder(s).Range("price", 10, 5).Build().IsEmpty() != true {
		t.Error("inverted range should be empty")
	}
	if NewBuilder(s).Range("branch", 1.2, 1.8).Build().IsEmpty() != true {
		t.Error("integer-free integral range should be empty")
	}
	if NewBuilder(s).Range("price", 1.2, 1.8).Build().IsEmpty() {
		t.Error("continuous range should not be empty")
	}
}

func TestClippedToDomain(t *testing.T) {
	s := testSchema()
	p := NewBuilder(s).Range("price", -100, 2000).Build()
	iv := p.Interval("price")
	if iv.Lo != 0 || iv.Hi != 1000 {
		t.Errorf("predicate not clipped to domain: %v", iv)
	}
}

func TestStringForms(t *testing.T) {
	s := testSchema()
	tests := []struct {
		p    *P
		want string
	}{
		{NewBuilder(s).Eq("branch", 2).Build(), "branch = 2"},
		{NewBuilder(s).Range("price", 1, 2).Build(), "1 <= price <= 2"},
		{NewBuilder(s).Le("price", 5).Build(), "price <= 5"},
		{NewBuilder(s).Ge("price", 5).Build(), "price >= 5"},
		{True(s), "TRUE"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
	named := True(s).Named("c1")
	if named.String() != "c1" {
		t.Errorf("Named String = %q", named.String())
	}
	multi := NewBuilder(s).Eq("branch", 1).Range("price", 1, 2).Build()
	if !strings.Contains(multi.String(), " AND ") {
		t.Errorf("conjunction should join with AND: %q", multi.String())
	}
}

func TestConstrained(t *testing.T) {
	s := testSchema()
	p := NewBuilder(s).Eq("branch", 1).Range("utc", 0, 100).Build()
	got := p.Constrained()
	if len(got) != 2 || got[0] != "branch" || got[1] != "utc" {
		t.Errorf("Constrained = %v", got)
	}
	if len(True(s).Constrained()) != 0 {
		t.Error("TRUE should constrain nothing")
	}
}

func TestEqual(t *testing.T) {
	s := testSchema()
	a := NewBuilder(s).Range("price", 1, 2).Build()
	b := NewBuilder(s).Range("price", 1, 2).Build()
	c := NewBuilder(s).Range("price", 1, 3).Build()
	if !a.Equal(b) {
		t.Error("identical predicates not Equal")
	}
	if a.Equal(c) {
		t.Error("different predicates Equal")
	}
	// Two differently-written empty predicates are equal as regions.
	e1 := NewBuilder(s).Range("price", 5, 1).Build()
	e2 := NewBuilder(s).Range("price", 9, 2).Build()
	if !e1.Equal(e2) {
		t.Error("empty predicates should compare equal")
	}
}

// Property: And is the set intersection — a row satisfies p.And(q) iff it
// satisfies both.
func TestAndMatchesEvalProperty(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(42))
	randPred := func() *P {
		b := NewBuilder(s)
		lo := rng.Float64() * 500
		b.Range("price", lo, lo+rng.Float64()*500)
		if rng.Intn(2) == 0 {
			b.Eq("branch", float64(rng.Intn(5)))
		}
		return b.Build()
	}
	f := func(priceScaled uint16, branch uint8, utc uint32) bool {
		row := domain.Row{float64(priceScaled) / 65535 * 1000, float64(branch % 5), float64(utc)}
		p, q := randPred(), randPred()
		return p.And(q).Eval(row) == (p.Eval(row) && q.Eval(row))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromBoxDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromBox(testSchema(), domain.Box{domain.Full})
}

func TestSortStable(t *testing.T) {
	s := testSchema()
	ps := []*P{
		NewBuilder(s).Eq("branch", 2).Build(),
		NewBuilder(s).Eq("branch", 1).Build(),
		NewBuilder(s).Eq("branch", 0).Build(),
	}
	SortStable(ps)
	if ps[0].String() != "branch = 0" || ps[2].String() != "branch = 2" {
		t.Errorf("not sorted: %v %v %v", ps[0], ps[1], ps[2])
	}
}

func TestIntervalUnknownAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	True(testSchema()).Interval("nope")
}

func TestEvalInfDomain(t *testing.T) {
	s := domain.NewSchema(domain.Attr{Name: "x", Kind: domain.Continuous, Domain: domain.Full})
	p := NewBuilder(s).Ge("x", 0).Build()
	if !p.Eval(domain.Row{math.Inf(1)}) {
		t.Error("x >= 0 should accept +inf")
	}
	if p.Eval(domain.Row{-1}) {
		t.Error("x >= 0 accepted -1")
	}
}
