package privelet_test

import (
	"context"
	"math"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/dataset"
)

// publishTable publishes a materialized table with the named mechanism
// (Fatal only if the table cannot be counted).
func publishTable(t testing.TB, tbl *privelet.Table, mechanism string, p privelet.Params) (*privelet.Release, error) {
	t.Helper()
	freq, err := privelet.TableFrequency(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return privelet.PublishWith(context.Background(), mechanism, freq, p)
}

func exampleTable(t testing.TB) *privelet.Table {
	t.Helper()
	tbl, err := dataset.MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPublicSchemaConstruction(t *testing.T) {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := privelet.ThreeLevelHierarchy(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Age", 32),
		privelet.NominalAttr("Gender", gender),
		privelet.NominalAttr("Occupation", occ),
	)
	if err != nil {
		t.Fatal(err)
	}
	if schema.DomainSize() != 32*2*16 {
		t.Fatalf("DomainSize = %d", schema.DomainSize())
	}
	tbl := privelet.NewTable(schema)
	if err := tbl.Append(10, 1, 7); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatal("Append failed")
	}
}

func TestBuildHierarchyPublic(t *testing.T) {
	root := &privelet.HierarchyNode{Label: "Any", Children: []*privelet.HierarchyNode{
		{Label: "a"}, {Label: "b"},
	}}
	h, err := privelet.BuildHierarchy(root)
	if err != nil {
		t.Fatal(err)
	}
	if h.LeafCount() != 2 {
		t.Fatal("BuildHierarchy wrong leaf count")
	}
}

func TestPublishAndCount(t *testing.T) {
	tbl := exampleTable(t)
	rel, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 1e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Near-noiseless: the intro query (diabetes, age < 50) answers 1.
	q, err := rel.NewQuery().Range("Age", 0, 2).Leaf("HasDiabetes", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-3 {
		t.Fatalf("Count = %v, want ~1", got)
	}
	if rel.Mechanism() != "privelet+" {
		t.Errorf("Mechanism = %q", rel.Mechanism())
	}
	if rel.Epsilon() != 1e9 {
		t.Errorf("Epsilon = %v", rel.Epsilon())
	}
	if rel.Sensitivity() <= 0 || rel.Lambda() <= 0 || rel.VarianceBound() <= 0 {
		t.Error("accounting fields not populated")
	}
	if rel.Schema() != tbl.Schema() {
		t.Error("Schema accessor broken")
	}
	if !strings.Contains(rel.String(), "privelet+") {
		t.Errorf("String() = %q", rel.String())
	}
}

func TestPublishBasicPublic(t *testing.T) {
	tbl := exampleTable(t)
	rel, err := publishTable(t, tbl, "basic", privelet.Params{Epsilon: 1e9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism() != "basic" {
		t.Errorf("Mechanism = %q", rel.Mechanism())
	}
	if rel.Sensitivity() != 1 {
		t.Errorf("Sensitivity = %v, want 1", rel.Sensitivity())
	}
	q, err := rel.NewQuery().Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8) > 1e-3 {
		t.Fatalf("full-domain count = %v, want ~8", got)
	}
}

func TestPublishSanitize(t *testing.T) {
	tbl := exampleTable(t)
	rel, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 0.5, Seed: 3, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rel.Matrix().Data() {
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("Sanitize left value %v", v)
		}
	}
}

func TestPublishValidationPublic(t *testing.T) {
	tbl := exampleTable(t)
	if _, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 0}); err == nil {
		t.Error("epsilon 0 should fail")
	}
	if _, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 1, SA: []string{"ghost"}}); err == nil {
		t.Error("unknown SA should fail")
	}
	if _, err := publishTable(t, tbl, "basic", privelet.Params{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
}

func TestPublishHistogramPublic(t *testing.T) {
	want := []float64{5, 10, 15, 20}
	var rows []int
	for v, n := range want {
		for range int(n) {
			rows = append(rows, v)
		}
	}
	freq := histFrequency(t, len(want), rows)
	rel, err := privelet.PublishWith(context.Background(), "hay", freq, privelet.Params{Epsilon: 1e9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	hist := rel.Matrix().Data()
	for i := range want {
		if math.Abs(hist[i]-want[i]) > 1e-3 {
			t.Fatalf("histogram[%d] = %v, want ~%v", i, hist[i], want[i])
		}
	}
	if _, err := privelet.PublishWith(context.Background(), "hay", freq, privelet.Params{Epsilon: 0}); err == nil {
		t.Error("epsilon 0 should fail")
	}
}

func TestRecommendSAPublic(t *testing.T) {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Big", 4096),
		privelet.NominalAttr("Gender", gender),
	)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := privelet.RecommendSA(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Gender (2 ≤ 2²·4) qualifies; Big (4096 > 13²·7) does not.
	if len(sa) != 1 || sa[0] != "Gender" {
		t.Fatalf("RecommendSA = %v, want [Gender]", sa)
	}
}

func TestReleaseCountMatchesMatrixEval(t *testing.T) {
	tbl := exampleTable(t)
	rel, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	q, err := rel.NewQuery().Range("Age", 1, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := q.Eval(rel.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-slow) > 1e-9 {
		t.Fatalf("prefix count %v != naive %v", fast, slow)
	}
}
