package haar

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// figure2Input is the paper's Figure 2 example vector.
var figure2Input = []float64{9, 3, 6, 2, 8, 4, 5, 7}

// figure2Coeffs is the corresponding coefficient vector in level order:
// c0 (base), c1, c2, c3, c4, c5, c6, c7.
var figure2Coeffs = []float64{5.5, -0.5, 1, 0, 3, 2, 2, -1}

func TestPaperFigure2Forward(t *testing.T) {
	got, err := Forward(figure2Input)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range figure2Coeffs {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("c%d = %v, want %v", i, got[i], want)
		}
	}
}

func TestPaperFigure2Inverse(t *testing.T) {
	got, err := Inverse(figure2Coeffs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range figure2Input {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("v%d = %v, want %v", i+1, got[i], want)
		}
	}
}

func TestPaperExample2Reconstruction(t *testing.T) {
	// Example 2: v2 = c0 + c1 + c2 − c4 = 5.5 − 0.5 + 1 − 3 = 3.
	c := figure2Coeffs
	v2 := c[0] + c[1] + c[2] - c[4]
	if v2 != 3 {
		t.Fatalf("Example 2: v2 = %v, want 3", v2)
	}
	rec, err := Inverse(c)
	if err != nil {
		t.Fatal(err)
	}
	if rec[1] != v2 {
		t.Fatalf("Inverse[1] = %v, want %v", rec[1], v2)
	}
}

func TestPaperFigure2Weights(t *testing.T) {
	// §IV-B: "W_Haar would assign weights 8, 8, 4, 2 to c0, c1, c2, and c4".
	w, err := Weights(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]float64{0: 8, 1: 8, 2: 4, 3: 4, 4: 2, 5: 2, 6: 2, 7: 2}
	for k, want := range cases {
		if w[k] != want {
			t.Errorf("W_Haar(c%d) = %v, want %v", k, w[k], want)
		}
	}
}

func TestForwardRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 5, 6, 7, 9, 100} {
		if _, err := Forward(make([]float64, n)); err == nil {
			t.Errorf("Forward accepted length %d", n)
		}
		if _, err := Inverse(make([]float64, n)); err == nil {
			t.Errorf("Inverse accepted length %d", n)
		}
		if _, err := Weights(n); err == nil {
			t.Errorf("Weights accepted length %d", n)
		}
	}
}

func TestSizeOne(t *testing.T) {
	c, err := Forward([]float64{42})
	if err != nil || c[0] != 42 {
		t.Fatalf("Forward([42]) = %v, %v", c, err)
	}
	v, err := Inverse(c)
	if err != nil || v[0] != 42 {
		t.Fatalf("Inverse = %v, %v", v, err)
	}
	if Weight(1, 0) != 1 {
		t.Fatalf("Weight(1,0) = %v, want 1", Weight(1, 0))
	}
}

func TestSizeTwo(t *testing.T) {
	c, err := Forward([]float64{10, 4})
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 7 || c[1] != 3 {
		t.Fatalf("Forward([10,4]) = %v, want [7 3]", c)
	}
	// Per §IV-B's definition, W_Haar(base) = m = 2 and the level-1
	// coefficient gets 2^(1-1+1) = 2. (The paper's Example 5 quotes 1/2
	// for a two-entry base coefficient, which contradicts §IV-B and
	// Theorem 2; we follow the normative §IV-B definition, the one
	// Theorem 2's sensitivity bound is proved for.)
	if Weight(2, 0) != 2 || Weight(2, 1) != 2 {
		t.Fatalf("weights(2) = %v,%v, want 2,2", Weight(2, 0), Weight(2, 1))
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := rng.New(99)
	for _, m := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		v := make([]float64, m)
		for i := range v {
			v[i] = r.Float64()*200 - 100
		}
		c, err := Forward(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Inverse(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if math.Abs(back[i]-v[i]) > 1e-9 {
				t.Fatalf("m=%d round trip failed at %d: %v vs %v", m, i, back[i], v[i])
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	// The transform must be linear: T(a·x + y) = a·T(x) + T(y).
	r := rng.New(7)
	const m = 32
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	a := 3.25
	combo := make([]float64, m)
	for i := range combo {
		combo[i] = a*x[i] + y[i]
	}
	tx, _ := Forward(x)
	ty, _ := Forward(y)
	tc, _ := Forward(combo)
	for i := range tc {
		want := a*tx[i] + ty[i]
		if math.Abs(tc[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, tc[i], want)
		}
	}
}

func TestLevel(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4}
	for k, want := range cases {
		if got := Level(k); got != want {
			t.Errorf("Level(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestGeneralizedSensitivityFormula(t *testing.T) {
	for m, want := range map[int]float64{1: 1, 2: 2, 8: 4, 1024: 11} {
		if got := GeneralizedSensitivity(m); got != want {
			t.Errorf("GS(%d) = %v, want %v", m, got, want)
		}
	}
}

// TestGeneralizedSensitivityEmpirical verifies Lemma 2 tightly: offsetting
// one entry by δ changes exactly 1+log₂m coefficients, and the weighted
// absolute change sums to (1+log₂m)·δ.
func TestGeneralizedSensitivityEmpirical(t *testing.T) {
	r := rng.New(3)
	for _, m := range []int{2, 8, 32, 128} {
		w, _ := Weights(m)
		v := make([]float64, m)
		for i := range v {
			v[i] = r.Float64() * 10
		}
		base, _ := Forward(v)
		for trial := 0; trial < 5; trial++ {
			pos := r.Intn(m)
			delta := 1 + r.Float64()*4
			mod := append([]float64(nil), v...)
			mod[pos] += delta
			pert, _ := Forward(mod)
			weighted := 0.0
			changed := 0
			for k := range base {
				d := math.Abs(pert[k] - base[k])
				if d > 1e-12 {
					changed++
				}
				weighted += w[k] * d
			}
			wantChanged := 1 + Log2(m)
			if changed != wantChanged {
				t.Fatalf("m=%d: %d coefficients changed, want %d", m, changed, wantChanged)
			}
			wantWeighted := GeneralizedSensitivity(m) * delta
			if math.Abs(weighted-wantWeighted) > 1e-9*wantWeighted {
				t.Fatalf("m=%d: weighted change %v, want %v", m, weighted, wantWeighted)
			}
		}
	}
}

// TestLemma3VarianceBound checks the utility lemma by Monte Carlo: inject
// noise of variance (σ/W(c))² into each coefficient, reconstruct, and
// verify that the empirical variance of range-query noise stays below
// (2+log₂m)/2·σ².
func TestLemma3VarianceBound(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	r := rng.New(1234)
	const m = 64
	const trials = 3000
	sigma := 2.0
	w, _ := Weights(m)
	zeros := make([]float64, m)
	base, _ := Forward(zeros) // all-zero: noise-only reconstruction

	// Fixed query: sum of entries [lo,hi].
	lo, hi := 5, 49
	sumSq := 0.0
	noisy := make([]float64, m)
	for trial := 0; trial < trials; trial++ {
		copy(noisy, base)
		for k := range noisy {
			// Laplace with magnitude σ/(√2·W) has variance (σ/W)².
			noisy[k] += r.Laplace(sigma / (math.Sqrt2 * w[k]))
		}
		rec, err := Inverse(noisy)
		if err != nil {
			t.Fatal(err)
		}
		q := 0.0
		for i := lo; i <= hi; i++ {
			q += rec[i]
		}
		sumSq += q * q
	}
	empirical := sumSq / trials
	bound := (2 + float64(Log2(m))) / 2 * sigma * sigma
	if empirical > bound*1.10 { // generous tolerance for MC noise
		t.Fatalf("empirical variance %v exceeds Lemma 3 bound %v", empirical, bound)
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 1024: 1024}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, m := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(m) {
			t.Errorf("IsPowerOfTwo(%d) = false", m)
		}
	}
	for _, m := range []int{0, -4, 3, 12, 1023} {
		if IsPowerOfTwo(m) {
			t.Errorf("IsPowerOfTwo(%d) = true", m)
		}
	}
}

// Property: round trip is the identity for any power-of-two size up to 256.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		m := 1 << (sizeRaw % 9) // 1..256
		r := rng.New(seed)
		v := make([]float64, m)
		for i := range v {
			v[i] = r.Float64()*100 - 50
		}
		c, err := Forward(v)
		if err != nil {
			return false
		}
		back, err := Inverse(c)
		if err != nil {
			return false
		}
		for i := range v {
			if math.Abs(back[i]-v[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the base coefficient always equals the mean.
func TestBaseIsMeanQuick(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		m := 1 << (sizeRaw % 8)
		r := rng.New(seed)
		v := make([]float64, m)
		sum := 0.0
		for i := range v {
			v[i] = r.Float64()*10 - 5
			sum += v[i]
		}
		c, err := Forward(v)
		if err != nil {
			return false
		}
		return math.Abs(c[0]-sum/float64(m)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
