package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/query"
	"repro/internal/rng"
)

func censusSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.BrazilSpec(dataset.ScaleSmall).Schema()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// predicates counts q's constrained attributes: Spec renders one
// comma-separated predicate per constrained attribute, "*" for none.
func predicates(s *dataset.Schema, q query.Query) int {
	spec := q.Spec(s)
	if spec == "*" {
		return 0
	}
	return strings.Count(spec, ",") + 1
}

func TestGeneratorPredicateCount(t *testing.T) {
	s := censusSchema(t)
	g, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	counts := make(map[int]int)
	for i := 0; i < 4000; i++ {
		q, err := g.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		np := predicates(s, q)
		if np < 1 || np > 4 {
			t.Fatalf("predicate count %d out of [1,4]", np)
		}
		counts[np]++
	}
	// Uniform over [1,4]: each bucket ≈ 1000.
	for np := 1; np <= 4; np++ {
		if counts[np] < 800 || counts[np] > 1200 {
			t.Errorf("predicate count %d drawn %d times, want ~1000", np, counts[np])
		}
	}
}

func TestGeneratorMaxPredsClamped(t *testing.T) {
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 8), dataset.OrdinalAttr("B", 8))
	g, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		q, err := g.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if np := predicates(s, q); np > 2 {
			t.Fatalf("predicate count %d exceeds attribute count", np)
		}
	}
	if _, err := NewGenerator(s, 0); err == nil {
		t.Error("maxPreds 0 should fail")
	}
}

func TestGeneratorNominalPredicatesAreSubtrees(t *testing.T) {
	s := censusSchema(t)
	occIdx, err := s.Index("Occupation")
	if err != nil {
		t.Fatal(err)
	}
	occ := s.Attr(occIdx)
	// Collect the set of valid subtree intervals.
	valid := make(map[[2]int]bool)
	for _, n := range occ.Hier.Nodes()[1:] {
		lo, hi := occ.Hier.LeafInterval(n)
		valid[[2]int{lo, hi}] = true
	}
	g, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	full := [2]int{0, occ.Size - 1}
	for i := 0; i < 2000; i++ {
		q, err := g.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := q.Lo()[occIdx], q.Hi()[occIdx]
		iv := [2]int{lo, hi}
		if iv == full {
			continue // unconstrained
		}
		if !valid[iv] {
			t.Fatalf("occupation interval %v is not a hierarchy subtree", iv)
		}
	}
}

func TestGeneratorSingleNodeHierarchy(t *testing.T) {
	// A one-leaf hierarchy (root only) must not panic.
	h, err := hierarchySingle()
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(dataset.NominalAttr("N", h), dataset.OrdinalAttr("A", 4))
	g, err := NewGenerator(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if _, err := g.Query(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueriesCountAndDeterminism(t *testing.T) {
	s := censusSchema(t)
	g, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Queries(50, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	qs2, err := g.Queries(50, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		a, b := qs[i], qs2[i]
		la, lb := a.Lo(), b.Lo()
		ha, hb := a.Hi(), b.Hi()
		for j := range la {
			if la[j] != lb[j] || ha[j] != hb[j] {
				t.Fatalf("query %d differs across same-seed generations", i)
			}
		}
	}
	if _, err := g.Queries(-1, rng.New(1)); err == nil {
		t.Error("negative count should fail")
	}
}

func TestSquareError(t *testing.T) {
	if SquareError(5, 3) != 4 {
		t.Error("SquareError(5,3) != 4")
	}
	if SquareError(3, 5) != 4 {
		t.Error("SquareError(3,5) != 4")
	}
	if SquareError(2, 2) != 0 {
		t.Error("SquareError(2,2) != 0")
	}
}

func TestRelativeError(t *testing.T) {
	// Above the sanity bound: plain relative error.
	if got := RelativeError(110, 100, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	// Below the sanity bound: denominator clamps to sanity.
	if got := RelativeError(5, 1, 10); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("RelativeError with sanity = %v, want 0.4", got)
	}
	// Exact answer → zero error.
	if RelativeError(7, 7, 10) != 0 {
		t.Error("exact answer should have zero error")
	}
	// Degenerate 0/0.
	if RelativeError(0, 0, 0) != 0 {
		t.Error("0/0 should define to 0")
	}
	if RelativeError(3, 0, 0) != 1 {
		t.Error("wrong answer with zero denominator should define to 1")
	}
}

func TestSanityBound(t *testing.T) {
	if SanityBound(10000000) != 10000 {
		t.Errorf("SanityBound(10M) = %v, want 10000", SanityBound(10000000))
	}
}

func TestQuintileBins(t *testing.T) {
	keys := []float64{5, 1, 3, 2, 4, 10, 9, 6, 7, 8}
	errs := []float64{50, 10, 30, 20, 40, 100, 90, 60, 70, 80}
	bins, err := QuintileBins(keys, errs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 5 {
		t.Fatalf("got %d bins", len(bins))
	}
	// Sorted keys 1..10 in pairs: bin means 1.5, 3.5, …, 9.5; errors ×10.
	for i, b := range bins {
		wantKey := 1.5 + 2*float64(i)
		if math.Abs(b.AvgKey-wantKey) > 1e-12 {
			t.Errorf("bin %d AvgKey = %v, want %v", i, b.AvgKey, wantKey)
		}
		if math.Abs(b.AvgError-wantKey*10) > 1e-12 {
			t.Errorf("bin %d AvgError = %v, want %v", i, b.AvgError, wantKey*10)
		}
		if b.Count != 2 {
			t.Errorf("bin %d Count = %d, want 2", i, b.Count)
		}
	}
}

func TestQuintileBinsUneven(t *testing.T) {
	keys := []float64{1, 2, 3, 4, 5, 6, 7}
	errs := []float64{1, 1, 1, 1, 1, 1, 1}
	bins, err := QuintileBins(keys, errs, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 7 {
		t.Fatalf("bins lose or duplicate members: total %d", total)
	}
}

func TestQuintileBinsErrors(t *testing.T) {
	if _, err := QuintileBins([]float64{1}, []float64{1, 2}, 5); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := QuintileBins(nil, nil, 5); err == nil {
		t.Error("empty population should fail")
	}
	if _, err := QuintileBins([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("zero bins should fail")
	}
	// More bins than items: collapses without error.
	bins, err := QuintileBins([]float64{1, 2}, []float64{3, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
}

func TestWorkloadEndToEnd(t *testing.T) {
	// Smoke test mirroring the experiment pipeline: generate, evaluate
	// on a real frequency matrix, bin by coverage.
	spec := dataset.BrazilSpec(dataset.ScaleSmall)
	tbl, err := dataset.GenerateCensus(spec, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	ev := query.NewEvaluator(m)
	g, err := NewGenerator(tbl.Schema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	qs, err := g.Queries(300, r)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, len(qs))
	errs := make([]float64, len(qs))
	for i, q := range qs {
		act, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if act < 0 || act > 2000 {
			t.Fatalf("actual answer %v out of range", act)
		}
		keys[i] = q.Coverage()
		errs[i] = SquareError(act, act) // zero for the smoke test
	}
	bins, err := QuintileBins(keys, errs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 5 {
		t.Fatalf("got %d bins", len(bins))
	}
	// Coverage keys must be increasing across bins.
	for i := 1; i < len(bins); i++ {
		if bins[i].AvgKey < bins[i-1].AvgKey {
			t.Fatalf("bins not ordered by coverage: %v", bins)
		}
	}
}

func hierarchySingle() (*hierarchy.Hierarchy, error) {
	return hierarchy.Build(&hierarchy.Node{Label: "only"})
}
