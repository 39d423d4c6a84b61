package marginal

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/query"
)

func censusTable(t testing.TB, n int) *dataset.Table {
	t.Helper()
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), n, 17)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestProjectPreservesCounts(t *testing.T) {
	tbl := censusTable(t, 3000)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	proj, sub, err := Project(m, tbl.Schema(), []string{"Age", "Gender"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumAttrs() != 2 {
		t.Fatalf("projected schema has %d attributes", sub.NumAttrs())
	}
	if proj.Total() != 3000 {
		t.Fatalf("projected total = %v, want 3000", proj.Total())
	}
	// Spot-check one cell: marginal(age, gender) must equal the sum over
	// occupation and income of the full matrix.
	age, gender := 20, 1
	var want float64
	dims := tbl.Schema().Dims()
	for occ := 0; occ < dims[2]; occ++ {
		for inc := 0; inc < dims[3]; inc++ {
			want += m.At(age, gender, occ, inc)
		}
	}
	if got := proj.At(age, gender); got != want {
		t.Fatalf("marginal cell = %v, want %v", got, want)
	}
}

func TestProjectAttributeOrder(t *testing.T) {
	tbl := censusTable(t, 500)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// Reversed order: output axis 0 must be Income.
	proj, sub, err := Project(m, tbl.Schema(), []string{"Income", "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Attr(0).Name != "Income" || sub.Attr(1).Name != "Age" {
		t.Fatalf("projected attribute order: %s, %s", sub.Attr(0).Name, sub.Attr(1).Name)
	}
	// proj[income, age] must equal projection in the other order at
	// transposed coordinates.
	proj2, _, err := Project(m, tbl.Schema(), []string{"Age", "Income"})
	if err != nil {
		t.Fatal(err)
	}
	for age := 0; age < 5; age++ {
		for inc := 0; inc < 5; inc++ {
			if proj.At(inc, age) != proj2.At(age, inc) {
				t.Fatalf("transpose mismatch at (%d,%d)", age, inc)
			}
		}
	}
}

func TestProjectErrors(t *testing.T) {
	tbl := censusTable(t, 10)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Project(m, tbl.Schema(), nil); err == nil {
		t.Error("empty list should fail")
	}
	if _, _, err := Project(m, tbl.Schema(), []string{"ghost"}); err == nil {
		t.Error("unknown attribute should fail")
	}
	small, _, err := Project(m, tbl.Schema(), []string{"Age"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Project(small, tbl.Schema(), []string{"Age"}); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestPublishSetBudgetSplit(t *testing.T) {
	tbl := censusTable(t, 2000)
	rels, err := PublishSet(context.Background(), tbl, [][]string{
		{"Age"}, {"Gender", "Occupation"},
	}, Options{Epsilon: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("got %d releases", len(rels))
	}
	for _, r := range rels {
		if math.Abs(r.Epsilon-0.5) > 1e-12 {
			t.Errorf("per-marginal epsilon = %v, want 0.5", r.Epsilon)
		}
	}
	if rels[0].Schema.NumAttrs() != 1 || rels[1].Schema.NumAttrs() != 2 {
		t.Error("projected schemas have wrong arity")
	}
	// Shapes match projections.
	if rels[1].Noisy.NumDims() != 2 {
		t.Error("noisy marginal has wrong dimensionality")
	}
}

func TestPublishSetAccuracy(t *testing.T) {
	// With a huge budget the noisy marginals are near-exact.
	tbl := censusTable(t, 5000)
	rels, err := PublishSet(context.Background(), tbl, [][]string{{"Age", "Gender"}}, Options{Epsilon: 1e9, Seed: 6, AutoSA: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := Project(m, tbl.Schema(), []string{"Age", "Gender"})
	if err != nil {
		t.Fatal(err)
	}
	if !rels[0].Noisy.AlmostEqual(proj, 1e-2) {
		d, _ := rels[0].Noisy.MaxAbsDiff(proj)
		t.Fatalf("near-noiseless marginal differs by %v", d)
	}
}

func TestPublishSetSanitize(t *testing.T) {
	tbl := censusTable(t, 500)
	rels, err := PublishSet(context.Background(), tbl, [][]string{{"Gender"}}, Options{Epsilon: 0.5, Seed: 7, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rels[0].Noisy.Data() {
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("sanitized marginal has value %v", v)
		}
	}
}

func TestPublishSetValidation(t *testing.T) {
	tbl := censusTable(t, 10)
	if _, err := PublishSet(context.Background(), tbl, nil, Options{Epsilon: 1}); err == nil {
		t.Error("no marginals should fail")
	}
	if _, err := PublishSet(context.Background(), tbl, [][]string{{"Age"}}, Options{Epsilon: 0}); err == nil {
		t.Error("epsilon 0 should fail")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := PublishSet(context.Background(), tbl, [][]string{{"Age"}}, Options{Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v should fail", eps)
		}
	}
	if _, err := PublishSet(context.Background(), tbl, [][]string{{"ghost"}}, Options{Epsilon: 1}); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestMarginalAnswersRangeQueries(t *testing.T) {
	// Released marginals are ordinary frequency matrices: the query
	// engine applies unchanged.
	tbl := censusTable(t, 3000)
	rels, err := PublishSet(context.Background(), tbl, [][]string{{"Age", "Gender"}}, Options{Epsilon: 1e9, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rel := rels[0]
	ev := query.NewEvaluator(rel.Noisy)
	q, err := query.NewBuilder(rel.Schema).Range("Age", 0, 31).Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the true count from the base table.
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	truth := query.NewEvaluator(m)
	qFull, err := query.NewBuilder(tbl.Schema()).Range("Age", 0, 31).Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := truth.Count(qFull)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-2 {
		t.Fatalf("marginal query = %v, want ~%v", got, want)
	}
}

// TestPublishSetSeedsShareNoStream: marginal 1 of a set published at
// seed s and marginal 0 of a set published at s+7919 must draw
// different noise. Were they one stream, B released at ε/2 and again at
// ε would carry noise n and exactly n/2, and 2·M₂ − M₁ would give B's
// exact counts.
func TestPublishSetSeedsShareNoStream(t *testing.T) {
	flat, err := hierarchy.Flat(4)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := dataset.NewSchema(dataset.OrdinalAttr("A", 16), dataset.NominalAttr("B", flat))
	if err != nil {
		t.Fatal(err)
	}
	tbl := dataset.NewTable(schema)
	for i := 0; i < 500; i++ {
		if err := tbl.Append(i%16, i*7%4); err != nil {
			t.Fatal(err)
		}
	}
	const seed = 11
	first, err := PublishSet(context.Background(), tbl, [][]string{{"A"}, {"B"}}, Options{Epsilon: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	second, err := PublishSet(context.Background(), tbl, [][]string{{"B"}}, Options{Epsilon: 1, Seed: seed + 7919})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := Project(m, schema, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := first[1].Noisy.Data(), second[0].Noisy.Data()
	miss := 0.0
	for i, x := range exact.Data() {
		miss = max(miss, math.Abs(2*m2[i]-m1[i]-x))
	}
	if miss <= 1 {
		t.Fatalf("2·M₂ − M₁ is within %g of B's exact counts: the two releases share one noise stream", miss)
	}
}
