package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source // zero value must behave like New(0)
	ref := New(0)
	for i := 0; i < 10; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("zero-value draw %d = %d, want %d", i, got, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", k, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(19)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("first element %d appeared %d times, want ~%v", k, c, want)
		}
	}
}

func TestLaplaceZeroMagnitude(t *testing.T) {
	s := New(23)
	for i := 0; i < 100; i++ {
		if v := s.Laplace(0); v != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", v)
		}
		if v := s.Laplace(-1); v != 0 {
			t.Fatalf("Laplace(-1) = %v, want 0", v)
		}
	}
}

// TestLaplaceRedrawsZero pins the u = -1/2 endpoint. A source one step
// before state 0 draws Uint64 0 (mix64(0) = 0), so its Float64 is 0 and
// u is -1/2, where ln(1 + 2u) is -Inf. Laplace must draw again: the
// result is then the first draw of a fresh New(0), and finite.
func TestLaplaceRedrawsZero(t *testing.T) {
	var step uint64 = 0x9e3779b97f4a7c15
	if f := (&Source{state: -step}).Float64(); f != 0 {
		t.Fatalf("Float64 = %v, want 0", f)
	}
	s := &Source{state: -step}
	got := s.Laplace(1)
	if want := New(0).Laplace(1); got != want || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Laplace(1) after a zero draw = %v, want %v", got, want)
	}
	if s.state != step {
		t.Fatalf("state = %#x after the redraw, want %#x", s.state, step)
	}
}

func TestLaplaceMoments(t *testing.T) {
	// A Laplace(b) variable has mean 0 and variance 2b².
	s := New(29)
	const n = 500000
	for _, b := range []float64{0.5, 1, 4} {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := s.Laplace(b)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) > 0.05*b {
			t.Errorf("Laplace(%v) mean = %v, want ~0", b, mean)
		}
		want := 2 * b * b
		if math.Abs(variance-want) > 0.05*want {
			t.Errorf("Laplace(%v) variance = %v, want ~%v", b, variance, want)
		}
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	s := New(31)
	const n = 200000
	pos := 0
	for i := 0; i < n; i++ {
		if s.Laplace(1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("positive fraction = %v, want ~0.5", frac)
	}
}

func TestLaplaceCDF(t *testing.T) {
	// Empirical CDF at a few points against F(x) = 1 - 0.5·exp(-x/b), x>=0.
	s := New(37)
	const n = 300000
	b := 2.0
	points := []float64{0.5, 1, 2, 4, 8}
	counts := make([]int, len(points))
	for i := 0; i < n; i++ {
		v := s.Laplace(b)
		for j, x := range points {
			if v <= x {
				counts[j]++
			}
		}
	}
	for j, x := range points {
		got := float64(counts[j]) / n
		want := 1 - 0.5*math.Exp(-x/b)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(43)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormFloat64CDF(t *testing.T) {
	// Empirical CDF at a few points against Φ(x) = (1 + erf(x/√2))/2:
	// the census generators shape ages and incomes with these draws.
	s := New(41)
	const n = 300000
	points := []float64{-2, -1, 0, 0.5, 1.5}
	counts := make([]int, len(points))
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		for j, x := range points {
			if v <= x {
				counts[j]++
			}
		}
	}
	for j, x := range points {
		got := float64(counts[j]) / n
		want := 0.5 * (1 + math.Erf(x/math.Sqrt2))
		if math.Abs(got-want) > 0.01 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(53)
	z := NewZipf(100, 1.2)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("draw total = %d, want %d", total, n)
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	s := New(59)
	z := NewZipf(10, 0)
	const n = 100000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[z.Draw(s)]++
	}
	want := float64(n) / 10
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("alpha=0 bucket %d count %d, want ~%v", k, c, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha float64
	}{{0, 1}, {-1, 1}, {10, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.alpha)
				}
			}()
			NewZipf(tc.n, tc.alpha)
		}()
	}
}

func TestZipfDrawInRangeQuick(t *testing.T) {
	s := New(61)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		z := NewZipf(n, 1)
		v := z.Draw(New(seed))
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = s
}

func TestIntnInRangeQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1024) + 1
		v := New(seed).Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLaplaceFiniteQuick(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		b := float64(scaleRaw%100) + 0.1
		v := New(seed).Laplace(b)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubstreamDeterministic(t *testing.T) {
	a := Substream(42, 7)
	b := Substream(42, 7)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestSubstreamsDistinct(t *testing.T) {
	// Streams of one seed, and equal stream indices of nearby seeds, must
	// all start from distinct states: collect first draws and check for
	// collisions across a grid of (seed, stream) pairs.
	seen := make(map[uint64][2]uint64)
	for seed := uint64(0); seed < 64; seed++ {
		for stream := uint64(0); stream < 64; stream++ {
			v := Substream(seed, stream).Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("first draw collision: (%d,%d) vs (%d,%d)", seed, stream, prev[0], prev[1])
			}
			seen[v] = [2]uint64{seed, stream}
		}
	}
}

func TestSubstreamLaplaceMoments(t *testing.T) {
	// A substream is a full-quality generator: Laplace draws from it must
	// have roughly the right mean and variance (2b²).
	s := Substream(9, 3)
	const n = 200_000
	b := 1.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Laplace(b)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	want := 2 * b * b
	if math.Abs(variance-want) > 0.1*want {
		t.Errorf("variance = %v, want ~%v", variance, want)
	}
}
