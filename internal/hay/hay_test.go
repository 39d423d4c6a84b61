package hay

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPublishValidation(t *testing.T) {
	if _, err := Publish(context.Background(), nil, 1, 0); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Publish(context.Background(), []float64{1}, 0, 0); err == nil {
		t.Error("epsilon 0 should fail")
	}
	if _, err := Publish(context.Background(), []float64{1}, -2, 0); err == nil {
		t.Error("negative epsilon should fail")
	}
	// 5e-324 and 1e-310 are positive and finite, but λ = 2ρ/ε overflows.
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-310} {
		if _, err := Publish(context.Background(), []float64{1}, eps, 0); err == nil {
			t.Errorf("epsilon %v should fail", eps)
		}
		if b := VarianceBound(eps, 8); !math.IsInf(b, 1) {
			t.Errorf("VarianceBound(%v, 8) = %v, want +Inf", eps, b)
		}
	}
}

func TestPublishShapeAndAccounting(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	res, err := Publish(context.Background(), v, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histogram) != 8 {
		t.Fatalf("histogram length %d", len(res.Histogram))
	}
	if res.Height != 4 { // log2(8)+1
		t.Errorf("Height = %d, want 4", res.Height)
	}
	if res.Magnitude != 8 { // 2·height/ε
		t.Errorf("Magnitude = %v, want 8", res.Magnitude)
	}
	if res.Epsilon != 1 {
		t.Errorf("Epsilon echo = %v", res.Epsilon)
	}
}

func TestPublishNonPowerOfTwoLength(t *testing.T) {
	v := []float64{2, 4, 6}
	res, err := Publish(context.Background(), v, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histogram) != 3 {
		t.Fatalf("histogram length %d, want 3", len(res.Histogram))
	}
	for i, want := range v {
		if math.Abs(res.Histogram[i]-want) > 1e-3 {
			t.Errorf("histogram[%d] = %v, want ~%v", i, res.Histogram[i], want)
		}
	}
}

func TestPublishNearNoiseless(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	res, err := Publish(context.Background(), v, 1e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range v {
		if math.Abs(res.Histogram[i]-want) > 1e-3 {
			t.Errorf("histogram[%d] = %v, want ~%v", i, res.Histogram[i], want)
		}
	}
}

func TestConsistentTreeInvariant(t *testing.T) {
	// After Consistent, parent = sum(children) exactly, at every node.
	r := rng.New(5)
	const m = 16
	noisy := make([]float64, 2*m)
	for k := 1; k < 2*m; k++ {
		noisy[k] = r.Float64()*10 - 5
	}
	x := Consistent(noisy, m)
	for k := 1; k < m; k++ {
		if math.Abs(x[k]-(x[2*k]+x[2*k+1])) > 1e-9 {
			t.Fatalf("node %d inconsistent: %v vs %v+%v", k, x[k], x[2*k], x[2*k+1])
		}
	}
}

func TestConsistentIsIdentityOnConsistentInput(t *testing.T) {
	// A tree that is already consistent must pass through unchanged.
	const m = 8
	r := rng.New(6)
	tree := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		tree[m+i] = math.Floor(r.Float64() * 10)
	}
	for k := m - 1; k >= 1; k-- {
		tree[k] = tree[2*k] + tree[2*k+1]
	}
	x := Consistent(tree, m)
	for k := 1; k < 2*m; k++ {
		if math.Abs(x[k]-tree[k]) > 1e-9 {
			t.Fatalf("Consistent changed node %d: %v -> %v", k, tree[k], x[k])
		}
	}
}

func TestConsistentIsLeastSquares(t *testing.T) {
	// Consistent must return the minimum-L2 consistent tree, i.e. the
	// orthogonal projection of the noisy tree onto consistent trees. The
	// consistent trees are spanned by one tree per leaf, holding 1 on
	// that leaf and every ancestor, so the residual noisy − x must sum
	// to zero along each root-to-leaf path.
	const m = 16
	r := rng.New(5)
	noisy := make([]float64, 2*m)
	for k := 1; k < 2*m; k++ {
		noisy[k] = r.Float64()*10 - 5
	}
	x := Consistent(noisy, m)
	for leaf := m; leaf < 2*m; leaf++ {
		dot := 0.0
		for k := leaf; k >= 1; k /= 2 {
			dot += noisy[k] - x[k]
		}
		if math.Abs(dot) > 1e-9 {
			t.Fatalf("residual along the path to leaf %d is %v, want 0", leaf-m, dot)
		}
	}
}

func TestConsistencyReducesLeafError(t *testing.T) {
	// The whole point of the mechanism: consistency post-processing
	// lowers mean squared leaf error relative to using the noisy leaves
	// alone. Check on average over trials.
	r := rng.New(7)
	const m = 64
	const trials = 300
	truth := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		truth[m+i] = math.Floor(r.Float64() * 20)
	}
	for k := m - 1; k >= 1; k-- {
		truth[k] = truth[2*k] + truth[2*k+1]
	}
	var rawErr, conErr float64
	noisy := make([]float64, 2*m)
	for trial := 0; trial < trials; trial++ {
		for k := 1; k < 2*m; k++ {
			noisy[k] = truth[k] + r.Laplace(2)
		}
		x := Consistent(noisy, m)
		for i := m; i < 2*m; i++ {
			rawErr += (noisy[i] - truth[i]) * (noisy[i] - truth[i])
			conErr += (x[i] - truth[i]) * (x[i] - truth[i])
		}
	}
	if conErr >= rawErr {
		t.Fatalf("consistency did not reduce leaf error: %v vs %v", conErr, rawErr)
	}
}

func TestPublishDeterminism(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	a, err := Publish(context.Background(), v, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Publish(context.Background(), v, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Histogram {
		if a.Histogram[i] != b.Histogram[i] {
			t.Fatal("same seed produced different releases")
		}
	}
}

// Property: total of the consistent histogram equals the consistent root.
func TestRootEqualsTotalQuick(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		m := 1 << (sizeRaw%5 + 1) // 2..32
		r := rng.New(seed)
		noisy := make([]float64, 2*m)
		for k := 1; k < 2*m; k++ {
			noisy[k] = r.Float64()*8 - 4
		}
		x := Consistent(noisy, m)
		total := 0.0
		for i := m; i < 2*m; i++ {
			total += x[i]
		}
		return math.Abs(total-x[1]) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
