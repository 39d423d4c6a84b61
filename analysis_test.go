package privelet_test

import (
	"math"
	"testing"

	privelet "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestPublicAnalyzer(t *testing.T) {
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("A", 16))
	if err != nil {
		t.Fatal(err)
	}
	an, err := privelet.NewAnalyzer(schema, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := privelet.NewQueryBuilder(schema).Range("A", 0, 15).Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := an.QueryVariance(q)
	if err != nil {
		t.Fatal(err)
	}
	// Full-domain query touches only the base coefficient: r = 16,
	// W = 16, λ = 2·5 ⇒ Var = 2λ²·(16/16)² = 200.
	if math.Abs(v-200) > 1e-9 {
		t.Fatalf("full-domain exact variance = %v, want 200", v)
	}
	// Exact variance never exceeds the §VI-D bound 600/ε².
	if v > 600 {
		t.Fatalf("exact variance %v exceeds the worst-case bound 600", v)
	}
}

func TestPublicBestSA(t *testing.T) {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.NominalAttr("Gender", gender),
		privelet.OrdinalAttr("Income", 512),
	)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Queries(200, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	sa, stats, err := privelet.BestSA(schema, 1.0, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 1 || sa[0] != "Gender" {
		t.Fatalf("BestSA = %v, want [Gender]", sa)
	}
	if stats.Mean <= 0 || stats.Max < stats.Mean {
		t.Fatalf("stats implausible: %+v", stats)
	}
}

func TestPublicMarginals(t *testing.T) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := privelet.PublishMarginals(tbl, [][]string{
		{"Age"}, {"Occupation", "Gender"},
	}, privelet.MarginalOptions{Epsilon: 1.0, Seed: 4, AutoSA: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("marginals = %d", len(rels))
	}
	if rels[0].Epsilon != 0.5 || rels[1].Epsilon != 0.5 {
		t.Error("budget not split evenly")
	}
	if rels[1].Schema.Attr(0).Name != "Occupation" {
		t.Error("marginal attribute order not preserved")
	}
}

func TestAnalyzerAgreesWithReleaseEmpirically(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// End-to-end public-API check: the analyzer's exact variance matches
	// the empirical variance of repeated Publish calls.
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("A", 32))
	if err != nil {
		t.Fatal(err)
	}
	empty := privelet.NewTable(schema)
	q0, err := privelet.NewQueryBuilder(schema).Range("A", 5, 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	an, err := privelet.NewAnalyzer(schema, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := an.QueryVariance(q0)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 3000
	var sumSq float64
	for i := 0; i < trials; i++ {
		rel, err := publishTable(t, empty, "privelet+", privelet.Params{Epsilon: 1.0, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := rel.Count(q0)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += v * v
	}
	mc := sumSq / trials
	if rel := math.Abs(mc-exact) / exact; rel > 0.10 {
		t.Fatalf("exact %v vs empirical %v (gap %.3f)", exact, mc, rel)
	}
}
