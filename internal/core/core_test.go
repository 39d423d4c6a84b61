package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

func smallCensus(t testing.TB, n int, seed uint64) *dataset.Table {
	t.Helper()
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// publishTable runs PublishMatrix on tbl's frequency matrix.
func publishTable(t testing.TB, tbl *dataset.Table, opts Options) (*Result, error) {
	t.Helper()
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return PublishMatrix(context.Background(), m, tbl.Schema(), opts)
}

func TestPublishShapeAndAccounting(t *testing.T) {
	tbl := smallCensus(t, 1000, 1)
	res, err := publishTable(t, tbl, Options{Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantDims := tbl.Schema().Dims()
	gotDims := res.Noisy.Dims()
	for i := range wantDims {
		if gotDims[i] != wantDims[i] {
			t.Fatalf("noisy shape %v, want %v", gotDims, wantDims)
		}
	}
	// rho = P(Occupation)·P(Income) = 3·(1+log2(64)) = 3·7 = 21.
	if res.Rho != 21 {
		t.Errorf("Rho = %v, want 21", res.Rho)
	}
	if res.Lambda != 42 {
		t.Errorf("Lambda = %v, want 2·21/1 = 42", res.Lambda)
	}
	// Sub-matrices: |Age|·|Gender| = 64·2 = 128.
	plan, err := NewPlan(tbl.Schema(), 1, []string{"Age", "Gender"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SubMatrices != 128 {
		t.Errorf("SubMatrices = %d, want 128", plan.SubMatrices)
	}
	if res.Epsilon != 1 {
		t.Errorf("Epsilon echo = %v", res.Epsilon)
	}
	if res.VarianceBound <= 0 {
		t.Errorf("VarianceBound = %v", res.VarianceBound)
	}
}

func TestPublishDeterminism(t *testing.T) {
	tbl := smallCensus(t, 500, 2)
	a, err := publishTable(t, tbl, Options{Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := publishTable(t, tbl, Options{Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Noisy.AlmostEqual(b.Noisy, 0) {
		t.Error("same seed produced different releases")
	}
	c, err := publishTable(t, tbl, Options{Epsilon: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Noisy.AlmostEqual(c.Noisy, 1e-9) {
		t.Error("different seeds produced identical releases")
	}
}

func TestPublishValidation(t *testing.T) {
	tbl := smallCensus(t, 10, 3)
	if _, err := publishTable(t, tbl, Options{Epsilon: 0}); err == nil {
		t.Error("epsilon 0 should fail")
	}
	if _, err := publishTable(t, tbl, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
	// The last two are positive and finite, but λ = 2ρ/ε overflows.
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-310} {
		if _, err := publishTable(t, tbl, Options{Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v should fail", eps)
		}
		if _, err := publishTable(t, tbl, Options{Epsilon: eps, SA: tbl.Schema().Names()}); err == nil {
			t.Errorf("epsilon %v with SA = every attribute should fail", eps)
		}
	}
	if _, err := publishTable(t, tbl, Options{Epsilon: 1, SA: []string{"Nope"}}); err == nil {
		t.Error("unknown SA attribute should fail")
	}
	if _, err := publishTable(t, tbl, Options{Epsilon: 1, SA: []string{"Age", "Age"}}); err == nil {
		t.Error("duplicate SA attribute should fail")
	}
	// Matrix/schema shape mismatch.
	m := matrix.MustNew(3, 3)
	if _, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1}); err == nil {
		t.Error("shape mismatch should fail")
	}
	m2 := matrix.MustNew(3)
	if _, err := PublishMatrix(context.Background(), m2, tbl.Schema(), Options{Epsilon: 1}); err == nil {
		t.Error("dimensionality mismatch should fail")
	}
}

func TestSAAllIsBasic(t *testing.T) {
	// SA = all attributes must reduce to the Basic mechanism: rho 1,
	// lambda 2/ε, noise variance per entry ≈ 2·(2/ε)².
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 50), dataset.OrdinalAttr("B", 50))
	m := matrix.MustNew(50, 50)
	res, err := PublishMatrix(context.Background(), m, s, Options{Epsilon: 0.5, SA: []string{"A", "B"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 1 {
		t.Errorf("Rho = %v, want 1", res.Rho)
	}
	if res.Lambda != 4 {
		t.Errorf("Lambda = %v, want 4", res.Lambda)
	}
	var sum, sumSq float64
	for _, v := range res.Noisy.Data() {
		sum += v
		sumSq += v * v
	}
	n := float64(res.Noisy.Len())
	variance := sumSq/n - (sum/n)*(sum/n)
	want := 2.0 * 4 * 4 // 2λ²
	if math.Abs(variance-want) > 0.15*want {
		t.Errorf("per-entry variance = %v, want ~%v", variance, want)
	}
}

func TestNoiselessLambdaZeroPath(t *testing.T) {
	// With a huge epsilon the noise is tiny: M* ≈ M, confirming that the
	// transform pipeline itself is lossless.
	tbl := smallCensus(t, 300, 4)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	res, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1e9, SA: []string{"Gender"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Noisy.AlmostEqual(m, 1e-3) {
		d, _ := res.Noisy.MaxAbsDiff(m)
		t.Fatalf("near-zero-noise release differs from M by %v", d)
	}
}

func TestQueryAccuracyBeatsBasicOnLargeQueries(t *testing.T) {
	// The headline claim on a small instance: for large-coverage queries
	// Privelet+'s square error is far below Basic's. Uses matched seeds
	// and averages over a query set.
	tbl := smallCensus(t, 20000, 5)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	truth := query.NewEvaluator(m)

	pres, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1, SA: []string{"Age", "Gender", "Occupation", "Income"}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pEval := query.NewEvaluator(pres.Noisy)
	bEval := query.NewEvaluator(bres.Noisy)

	gen, err := workload.NewGenerator(tbl.Schema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	var pErr, bErr float64
	count := 0
	for i := 0; i < 400; i++ {
		q, err := gen.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if q.Coverage() < 0.05 {
			continue // only large queries for this assertion
		}
		act, err := truth.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := pEval.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := bEval.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		pErr += workload.SquareError(pv, act)
		bErr += workload.SquareError(bv, act)
		count++
	}
	if count < 30 {
		t.Fatalf("only %d large queries sampled", count)
	}
	if pErr >= bErr {
		t.Fatalf("Privelet+ square error %v not below Basic %v on large queries", pErr/float64(count), bErr/float64(count))
	}
}

func TestVarianceBoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// Corollary 1's bound must hold empirically for a fixed large query
	// over repeated releases.
	s := dataset.MustSchema(
		dataset.OrdinalAttr("A", 16),
		dataset.OrdinalAttr("B", 8),
	)
	m := matrix.MustNew(16, 8) // zero matrix: pure noise measurement
	q, err := query.NewBuilder(s).Range("A", 2, 13).Range("B", 1, 6).Build()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1500
	eps := 1.0
	var sumSq float64
	var bound float64
	for trial := 0; trial < trials; trial++ {
		res, err := PublishMatrix(context.Background(), m, s, Options{Epsilon: eps, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		bound = res.VarianceBound
		got, err := q.Eval(res.Noisy)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += got * got
	}
	empirical := sumSq / trials
	if empirical > bound {
		t.Fatalf("empirical variance %v exceeds Corollary 1 bound %v", empirical, bound)
	}
}

func TestRecommendSA(t *testing.T) {
	// For the census schema, Age and Gender qualify (the paper's choice):
	// |Age| = 64 ≤ P²H = 7²·4 = 196; |Gender| = 2 ≤ 2²·4 = 16;
	// Occupation 64 > 3²·4 = 36; Income same as Age... Income |A|=64 ≤ 196.
	// So at small scale Income also qualifies — verify against formulas
	// rather than the paper's full-scale pick.
	tbl := smallCensus(t, 10, 6)
	got, err := RecommendSA(tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Age": true, "Gender": true, "Income": true}
	if len(got) != len(want) {
		t.Fatalf("RecommendSA = %v", got)
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("RecommendSA includes %q unexpectedly", name)
		}
	}
	// At full scale the paper's SA = {Age, Gender} emerges: Age 101 ≤
	// 8²·4.5 = 288, Gender 2 ≤ 16, Occupation 512 > 36, Income 1001 >
	// (1+10)²·6 = 726.
	full, err := dataset.BrazilSpec(dataset.ScaleFull).Schema()
	if err != nil {
		t.Fatal(err)
	}
	got, err = RecommendSA(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "Age" || got[1] != "Gender" {
		t.Fatalf("full-scale RecommendSA = %v, want [Age Gender]", got)
	}
}

func TestPublishPreservesInput(t *testing.T) {
	tbl := smallCensus(t, 200, 8)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	// Plain Privelet and the Basic case (SA = every attribute), which
	// noises a clone instead of transforming sub-matrices.
	for _, sa := range [][]string{nil, tbl.Schema().Names()} {
		if _, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1, SA: sa, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if !m.AlmostEqual(before, 0) {
			t.Fatalf("PublishMatrix with SA %v modified its input", sa)
		}
	}
}

func TestPriveletNoSA1D(t *testing.T) {
	// 1-D ordinal: plain Privelet §IV-B. Check ε accounting: m = 16,
	// rho = 5, lambda = 2·5/ε.
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 16))
	m := matrix.MustNew(16)
	res, err := PublishMatrix(context.Background(), m, s, Options{Epsilon: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 5 || res.Lambda != 5 {
		t.Errorf("rho, lambda = %v, %v; want 5, 5", res.Rho, res.Lambda)
	}
	plan, err := NewPlan(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SubMatrices != 1 {
		t.Errorf("SubMatrices = %d, want 1", plan.SubMatrices)
	}
}
