package variance

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

// monteCarlo estimates the noise variance of q on releases of a zero
// matrix published with (epsilon, sa), over `trials` fresh seeds.
func monteCarlo(t *testing.T, schema *dataset.Schema, epsilon float64, sa []string, q query.Query, trials int) float64 {
	t.Helper()
	m, err := matrix.New(schema.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	for i := 0; i < trials; i++ {
		res, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: epsilon, SA: sa, Seed: uint64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := q.Eval(res.Noisy)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += v * v
	}
	return sumSq / float64(trials)
}

// checkAgainstMC asserts the exact variance is within tol (relative) of
// the Monte-Carlo estimate.
func checkAgainstMC(t *testing.T, schema *dataset.Schema, epsilon float64, sa []string, q query.Query, trials int, tol float64) {
	t.Helper()
	an, err := NewAnalyzer(schema, epsilon, sa)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := an.QueryVariance(q)
	if err != nil {
		t.Fatal(err)
	}
	mc := monteCarlo(t, schema, epsilon, sa, q, trials)
	if exact <= 0 {
		t.Fatalf("exact variance %v not positive", exact)
	}
	if rel := math.Abs(mc-exact) / exact; rel > tol {
		t.Fatalf("exact %v vs Monte Carlo %v (relative gap %.3f > %.3f)", exact, mc, rel, tol)
	}
}

func TestExact1DOrdinal(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 16))
	for _, iv := range [][2]int{{0, 15}, {3, 9}, {5, 5}, {0, 7}} {
		q, err := query.NewBuilder(s).Range("A", iv[0], iv[1]).Build()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstMC(t, s, 1.0, nil, q, 4000, 0.10)
	}
}

func TestExact1DOrdinalPadded(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 11)) // pads to 16
	q, err := query.NewBuilder(s).Range("A", 2, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMC(t, s, 1.0, nil, q, 4000, 0.10)
}

func TestExact1DNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	h, err := hierarchy.ThreeLevel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(dataset.NominalAttr("N", h))
	for _, probe := range []struct {
		label string
		build func(b *query.Builder) *query.Builder
	}{
		{"leaf", func(b *query.Builder) *query.Builder { return b.Leaf("N", 5) }},
		{"group", func(b *query.Builder) *query.Builder { return b.Node("N", "g1") }},
		{"root", func(b *query.Builder) *query.Builder { return b.Node("N", "Any") }},
		{"cross-group interval", func(b *query.Builder) *query.Builder { return b.Interval(0, 2, 9) }},
	} {
		q, err := probe.build(query.NewBuilder(s)).Build()
		if err != nil {
			t.Fatalf("%s: %v", probe.label, err)
		}
		checkAgainstMC(t, s, 1.0, nil, q, 4000, 0.10)
	}
}

func TestExact2DMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(
		dataset.OrdinalAttr("A", 8),
		dataset.NominalAttr("N", h),
	)
	q, err := query.NewBuilder(s).Range("A", 1, 6).Node("N", "g0").Build()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMC(t, s, 0.8, nil, q, 4000, 0.10)
}

func TestExactWithSA(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	h, err := hierarchy.Flat(3)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(
		dataset.NominalAttr("G", h),
		dataset.OrdinalAttr("A", 8),
	)
	q, err := query.NewBuilder(s).Interval(0, 0, 1).Range("A", 2, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMC(t, s, 1.0, []string{"G"}, q, 4000, 0.10)
}

func TestExactBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	s := dataset.MustSchema(
		dataset.OrdinalAttr("A", 6),
		dataset.OrdinalAttr("B", 5),
	)
	q, err := query.NewBuilder(s).Range("A", 1, 4).Range("B", 0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	// SA = everything ⇒ Basic: exact variance = covered·2·(2/ε)².
	an, err := NewAnalyzer(s, 1.0, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := an.QueryVariance(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 12.0 * 2 * 4 // 12 cells × 2λ², λ=2
	if math.Abs(exact-want) > 1e-9 {
		t.Fatalf("Basic exact variance = %v, want %v", exact, want)
	}
	checkAgainstMC(t, s, 1.0, []string{"A", "B"}, q, 4000, 0.10)
}

func TestExactBelowWorstCaseBound(t *testing.T) {
	// The exact variance never exceeds Corollary 1's bound.
	h, err := hierarchy.ThreeLevel(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(
		dataset.OrdinalAttr("A", 16),
		dataset.NominalAttr("N", h),
	)
	m, err := matrix.New(s.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.PublishMatrix(context.Background(), m, s, core.Options{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(s, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		q, err := gen.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		v, err := an.QueryVariance(q)
		if err != nil {
			t.Fatal(err)
		}
		if v > res.VarianceBound*(1+1e-9) {
			t.Fatalf("exact variance %v exceeds Corollary 1 bound %v", v, res.VarianceBound)
		}
	}
}

func TestAnalyzerValidation(t *testing.T) {
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 4))
	if _, err := NewAnalyzer(s, 0, nil); err == nil {
		t.Error("epsilon 0 should fail")
	}
	// 5e-324 and 1e-310 are positive and finite, but λ = 2ρ/ε overflows.
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-310} {
		if _, err := NewAnalyzer(s, eps, nil); err == nil {
			t.Errorf("epsilon %v should fail", eps)
		}
		if _, err := NewAnalyzer(s, eps, []string{"A"}); err == nil {
			t.Errorf("epsilon %v with SA = every attribute should fail", eps)
		}
	}
	if _, err := NewAnalyzer(s, 1, []string{"ghost"}); err == nil {
		t.Error("unknown SA should fail")
	}
	if _, err := NewAnalyzer(s, 1, []string{"A", "A"}); err == nil {
		t.Error("duplicate SA should fail")
	}
	an, err := NewAnalyzer(s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an.lambda != 2*3 { // rho = 1+log2(4) = 3
		t.Errorf("lambda = %v, want 6", an.lambda)
	}
	// Mismatched query (built on a different schema).
	other := dataset.MustSchema(dataset.OrdinalAttr("X", 4), dataset.OrdinalAttr("Y", 4))
	q, err := query.NewBuilder(other).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.QueryVariance(q); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestWorkloadStats(t *testing.T) {
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 32))
	an, err := NewAnalyzer(s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Queries(200, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := an.Workload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats.Min <= stats.Mean && stats.Mean <= stats.Max) {
		t.Fatalf("stats ordering broken: %+v", stats)
	}
	if !(stats.P95 <= stats.Max && stats.P95 >= stats.Min) {
		t.Fatalf("P95 out of range: %+v", stats)
	}
	if _, err := an.Workload(nil); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestBestSAPrefersSmallDomainInSA(t *testing.T) {
	// One tiny attribute and one large one: the known-optimal choice is
	// SA = {tiny}. BestSA must find it from workload variances alone.
	s := dataset.MustSchema(
		dataset.OrdinalAttr("Tiny", 2),
		dataset.OrdinalAttr("Big", 256),
	)
	gen, err := workload.NewGenerator(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Queries(300, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	names, stats, err := BestSA(s, 1.0, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Tiny" {
		t.Fatalf("BestSA = %v (stats %+v), want [Tiny]", names, stats)
	}
	if _, _, err := BestSA(s, 1.0, nil); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestNominalWeightSumFigure3(t *testing.T) {
	// Hand-checked effective weights for the Figure 3 hierarchy and the
	// subtree query g0 (leaves 0..2): after mean subtraction the leaf
	// groups cancel entirely, leaving base weight 1/2 and ±1/2 on the two
	// level-2 coefficients.
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(dataset.NominalAttr("N", h))
	an, err := NewAnalyzer(s, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewBuilder(s).Node("N", "g0").Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.QueryVariance(q)
	if err != nil {
		t.Fatal(err)
	}
	// λ = 2·h/ε = 6. Weights: base W=1 r=1/2; c1,c2 W=1 r=±1/2;
	// leaf groups r=0. Var = 2λ²·((1/2)² + (1/2)² + (1/2)²) = 2·36·0.75 = 54.
	if math.Abs(got-54) > 1e-9 {
		t.Fatalf("Figure 3 subtree variance = %v, want 54", got)
	}
}
