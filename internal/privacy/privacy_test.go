package privacy

import (
	"context"
	"math"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/transform"
)

func TestPOrdinal(t *testing.T) {
	cases := map[int]float64{2: 2, 8: 4, 16: 5, 512: 10, 1024: 11}
	for size, want := range cases {
		if got := POrdinal(size); got != want {
			t.Errorf("POrdinal(%d) = %v, want %v", size, got, want)
		}
	}
	// Non-power-of-two pads up: 101 → 128 → P = 8.
	if got := POrdinal(101); got != 8 {
		t.Errorf("POrdinal(101) = %v, want 8", got)
	}
}

func TestHOrdinal(t *testing.T) {
	cases := map[int]float64{16: 3, 8: 2.5, 1024: 6}
	for size, want := range cases {
		if got := HOrdinal(size); got != want {
			t.Errorf("HOrdinal(%d) = %v, want %v", size, got, want)
		}
	}
}

func TestPHNominal(t *testing.T) {
	h, err := hierarchy.ThreeLevel(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := PNominal(h); got != 3 {
		t.Errorf("PNominal = %v, want 3", got)
	}
	if got := HNominal(h); got != 4 {
		t.Errorf("HNominal = %v, want 4", got)
	}
}

func TestSpecDispatch(t *testing.T) {
	h, _ := hierarchy.Flat(2)
	if p, err := PSpec(transform.Ordinal(16)); err != nil || p != 5 {
		t.Errorf("PSpec ordinal = %v, %v", p, err)
	}
	if p, err := PSpec(transform.Nominal(h)); err != nil || p != 2 {
		t.Errorf("PSpec nominal = %v, %v", p, err)
	}
	if hv, err := HSpec(transform.Ordinal(16)); err != nil || hv != 3 {
		t.Errorf("HSpec ordinal = %v, %v", hv, err)
	}
	if hv, err := HSpec(transform.Nominal(h)); err != nil || hv != 4 {
		t.Errorf("HSpec nominal = %v, %v", hv, err)
	}
	if _, err := PSpec(transform.Ordinal(0)); err == nil {
		t.Error("PSpec ordinal 0 should fail")
	}
	if _, err := PSpec(transform.Spec{Kind: transform.KindNominal}); err == nil {
		t.Error("PSpec nominal nil hierarchy should fail")
	}
	if _, err := HSpec(transform.Spec{Kind: transform.Kind(7)}); err == nil {
		t.Error("HSpec unknown kind should fail")
	}
	if _, err := HSpec(transform.Ordinal(-2)); err == nil {
		t.Error("HSpec ordinal negative should fail")
	}
	if _, err := HSpec(transform.Spec{Kind: transform.KindNominal}); err == nil {
		t.Error("HSpec nominal nil hierarchy should fail")
	}
	if _, err := PSpec(transform.Spec{Kind: transform.Kind(7)}); err == nil {
		t.Error("PSpec unknown kind should fail")
	}
}

func TestLambda(t *testing.T) {
	lam, err := Lambda(0.5, 10)
	if err != nil || lam != 40 {
		t.Fatalf("Lambda(0.5, 10) = %v, %v; want 40", lam, err)
	}
	if _, err := Lambda(0, 1); err == nil {
		t.Error("Lambda eps=0 should fail")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if lam, err := Lambda(eps, 1); err == nil {
			t.Errorf("Lambda(%v, 1) = %v, want an error", eps, lam)
		}
		if _, err := PriveletPlusVarianceBound(eps, nil, nil); err == nil {
			t.Errorf("PriveletPlusVarianceBound eps=%v should fail", eps)
		}
	}
	for _, eps := range []float64{5e-324, 1, math.MaxFloat64} {
		if err := CheckEpsilon(eps); err != nil {
			t.Errorf("CheckEpsilon(%v) = %v, want nil", eps, err)
		}
	}
	if _, err := Lambda(1, 0); err == nil {
		t.Error("Lambda rho=0 should fail")
	}
}

func TestSectionVDWorkedExample(t *testing.T) {
	// §V-D: Occupation with m = 512, h = 3.
	// HWT bound: (2+log₂512)(2+2log₂512)²/ε² = 11·20² = 4400/ε².
	eps := 1.0
	if got := HaarVarianceBound(eps, 512); got != 4400 {
		t.Errorf("HaarVarianceBound(1, 512) = %v, want 4400", got)
	}
	// Nominal bound: 4·2·(2·3)²/ε² = 288/ε².
	if got := NominalVarianceBound(eps, 3); got != 288 {
		t.Errorf("NominalVarianceBound(1, 3) = %v, want 288", got)
	}
	// The paper's "15-fold reduction": 4400/288 ≈ 15.3.
	ratio := HaarVarianceBound(eps, 512) / NominalVarianceBound(eps, 3)
	if ratio < 15 || ratio > 16 {
		t.Errorf("reduction factor = %v, want ≈15.3", ratio)
	}
}

func TestSectionVIDWorkedExample(t *testing.T) {
	// §VI-D: single ordinal attribute |A| = 16.
	// Privelet: 2·(2·P/ε)²·H = 2·(2·5)²·3 = 600/ε².
	eps := 1.0
	p := POrdinal(16)
	h := HOrdinal(16)
	privelet := 2 * (2 * p / eps) * (2 * p / eps) * h
	if privelet != 600 {
		t.Errorf("Privelet bound = %v, want 600", privelet)
	}
	// Basic: 16 entries · 8/ε² = 128/ε².
	if got := BasicVarianceBound(eps, 16); got != 128 {
		t.Errorf("Basic bound = %v, want 128", got)
	}
	// Equation 7 with SA = {A}: 8/ε²·|A| = 128/ε² — Basic is the
	// SA-everything special case.
	viaEq7, err := PriveletPlusVarianceBound(eps, []int{16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaEq7 != 128 {
		t.Errorf("Eq 7 with SA={A} = %v, want 128", viaEq7)
	}
	// Equation 7 with SA = ∅ reproduces the Privelet bound: 8/ε²·P²·H.
	viaEq7, err = PriveletPlusVarianceBound(eps, nil, []transform.Spec{transform.Ordinal(16)})
	if err != nil {
		t.Fatal(err)
	}
	if viaEq7 != 600 {
		t.Errorf("Eq 7 with SA=∅ = %v, want 600", viaEq7)
	}
}

func TestPriveletPlusVarianceBoundValidation(t *testing.T) {
	if _, err := PriveletPlusVarianceBound(0, nil, nil); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := PriveletPlusVarianceBound(1, []int{0}, nil); err == nil {
		t.Error("zero SA size should fail")
	}
	if _, err := PriveletPlusVarianceBound(1, nil, []transform.Spec{transform.Ordinal(0)}); err == nil {
		t.Error("bad spec should fail")
	}
}

func TestBoundsScaleWithEpsilon(t *testing.T) {
	// All bounds are 1/ε²: halving ε quadruples them.
	if r := HaarVarianceBound(0.5, 64) / HaarVarianceBound(1, 64); math.Abs(r-4) > 1e-12 {
		t.Errorf("Haar bound epsilon scaling = %v, want 4", r)
	}
	if r := NominalVarianceBound(0.5, 3) / NominalVarianceBound(1, 3); math.Abs(r-4) > 1e-12 {
		t.Errorf("Nominal bound epsilon scaling = %v, want 4", r)
	}
	if r := BasicVarianceBound(0.5, 100) / BasicVarianceBound(1, 100); math.Abs(r-4) > 1e-12 {
		t.Errorf("Basic bound epsilon scaling = %v, want 4", r)
	}
}

func TestInjectLaplaceUniformMoments(t *testing.T) {
	m := matrix.MustNew(200, 200)
	mag := 2.0
	if err := InjectLaplaceUniformCtx(context.Background(), m, mag, 9, 1); err != nil {
		t.Fatal(err)
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range m.Data() {
		sum += v
		sumSq += v * v
	}
	n := float64(m.Len())
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := 2 * mag * mag
	if math.Abs(mean) > 0.1 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-want) > 0.1*want {
		t.Errorf("variance = %v, want ~%v", variance, want)
	}
	if err := InjectLaplaceUniformCtx(context.Background(), m, -1, 9, 1); err == nil {
		t.Error("negative magnitude should fail")
	}
}

func TestInjectLaplaceWeighted(t *testing.T) {
	// Two-dimensional 2×3 with weight vectors [1,2] and [1,1,4]: entry
	// (1,2) has weight 8 ⇒ magnitude λ/8 ⇒ variance 2λ²/64. Each trial
	// uses its own seed: a seed fully determines the noise, so resampling
	// means reseeding.
	wv := [][]float64{{1, 2}, {1, 1, 4}}
	lambda := 4.0
	const trials = 60000
	sumSq := make(map[[2]int]float64)
	for trial := 0; trial < trials; trial++ {
		m := matrix.MustNew(2, 3)
		if err := InjectLaplace(m, wv, lambda, uint64(trial)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				v := m.At(i, j)
				k := [2]int{i, j}
				sumSq[k] += v * v
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			w := wv[0][i] * wv[1][j]
			want := 2 * (lambda / w) * (lambda / w)
			got := sumSq[[2]int{i, j}] / trials
			if math.Abs(got-want) > 0.08*want {
				t.Errorf("entry (%d,%d): variance %v, want ~%v", i, j, got, want)
			}
		}
	}
}

func TestInjectLaplaceZeroWeightSkipped(t *testing.T) {
	m := matrix.MustNew(4)
	wv := [][]float64{{1, 0, 2, 0}}
	if err := InjectLaplace(m, wv, 3, 11); err != nil {
		t.Fatal(err)
	}
	if m.At(1) != 0 || m.At(3) != 0 {
		t.Error("zero-weight entries received noise")
	}
	if m.At(0) == 0 && m.At(2) == 0 {
		t.Error("non-zero-weight entries received no noise")
	}
}

func TestInjectLaplaceValidation(t *testing.T) {
	m := matrix.MustNew(2, 2)
	if err := InjectLaplace(m, [][]float64{{1, 1}}, 1, 12); err == nil {
		t.Error("wrong weight vector count should fail")
	}
	if err := InjectLaplace(m, [][]float64{{1}, {1, 1}}, 1, 12); err == nil {
		t.Error("wrong weight vector length should fail")
	}
	if err := InjectLaplace(m, [][]float64{{1, 1}, {1, 1}}, -2, 12); err == nil {
		t.Error("negative lambda should fail")
	}
}
