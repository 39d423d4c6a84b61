package transform

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/rng"
)

func mustHN(t testing.TB, specs ...Spec) *HN {
	t.Helper()
	hn, err := New(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return hn
}

func fig3Hierarchy(t testing.TB) *hierarchy.Hierarchy {
	t.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPaperFigure4 verifies the worked 2×2 example of §VI-A: the final
// coefficient matrix C2 of M = [[8,4],[1,5]] is [[4.5,0],[1.5,2]].
// (The standard decomposition's per-dimension steps commute, so the
// figure's dim-2-first ordering yields the same C2 as our dim-1-first.)
func TestPaperFigure4(t *testing.T) {
	hn := mustHN(t, Ordinal(2), Ordinal(2))
	m := matrix.MustNew(2, 2)
	m.Set(8, 0, 0)
	m.Set(4, 0, 1)
	m.Set(1, 1, 0)
	m.Set(5, 1, 1)
	c, err := hn.Forward(m)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{4.5, 0}, {1.5, 2}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(c.At(i, j)-want[i][j]) > 1e-12 {
				t.Errorf("C2[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	back, err := hn.Inverse(c)
	if err != nil {
		t.Fatal(err)
	}
	if !back.AlmostEqual(m, 1e-12) {
		t.Error("Figure 4 round trip failed")
	}
}

// TestExample5SensitivityProperty pins down the Theorem 2 property on the
// 2×2 example in place of Example 5's (erroneous) literal weights: total
// weighted coefficient change per unit entry change is P(A1)·P(A2) = 4.
func TestExample5SensitivityProperty(t *testing.T) {
	hn := mustHN(t, Ordinal(2), Ordinal(2))
	if got := hn.GeneralizedSensitivity(); got != 4 {
		t.Fatalf("GS = %v, want 4", got)
	}
	m := matrix.MustNew(2, 2)
	base, _ := hn.Forward(m)
	mod := m.Clone()
	mod.Set(1, 0, 0) // δ = 1 at v11
	pert, _ := hn.Forward(mod)
	weighted := 0.0
	coords := make([]int, 2)
	for off, v := range pert.Data() {
		pert.Coords(off, coords)
		weighted += hn.Weight(coords...) * math.Abs(v-base.Data()[off])
	}
	if math.Abs(weighted-4) > 1e-12 {
		t.Fatalf("weighted change = %v, want 4", weighted)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() should fail")
	}
	if _, err := New(Ordinal(0)); err == nil {
		t.Error("Ordinal(0) should fail")
	}
	if _, err := New(Spec{Kind: KindNominal}); err == nil {
		t.Error("nominal without hierarchy should fail")
	}
	if _, err := New(Spec{Kind: Kind(42), Size: 4}); err == nil {
		t.Error("unknown kind should fail")
	}
	h := fig3Hierarchy(t)
	if _, err := New(Spec{Kind: KindNominal, Hier: h, Size: 5}); err == nil {
		t.Error("nominal size mismatch should fail")
	}
	if _, err := New(Spec{Kind: KindNominal, Hier: h, Size: 6}); err != nil {
		t.Errorf("matching explicit size rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindOrdinal.String() != "ordinal" || KindNominal.String() != "nominal" {
		t.Error("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still render")
	}
}

func TestShapes(t *testing.T) {
	h := fig3Hierarchy(t)
	hn := mustHN(t, Ordinal(5), Nominal(h))
	if got := hn.InputDims(); got[0] != 5 || got[1] != 6 {
		t.Errorf("InputDims = %v, want [5 6]", got)
	}
	// Ordinal 5 pads to 8; nominal 6 leaves grow to 9 nodes.
	if got := hn.CoeffDims(); got[0] != 8 || got[1] != 9 {
		t.Errorf("CoeffDims = %v, want [8 9]", got)
	}
	if hn.NumDims() != 2 {
		t.Errorf("NumDims = %d", hn.NumDims())
	}
}

func TestForwardInputValidation(t *testing.T) {
	hn := mustHN(t, Ordinal(4), Ordinal(4))
	if _, err := hn.Forward(matrix.MustNew(4)); err == nil {
		t.Error("wrong dimensionality should fail")
	}
	if _, err := hn.Forward(matrix.MustNew(4, 5)); err == nil {
		t.Error("wrong shape should fail")
	}
	// With a padded dimension the coefficient shape differs from the
	// input shape, so an input-shaped matrix must be rejected by Inverse.
	padded := mustHN(t, Ordinal(5), Ordinal(4))
	if _, err := padded.Inverse(matrix.MustNew(5, 4)); err == nil {
		t.Error("Inverse with input-shaped matrix should fail (needs coeff shape)")
	}
	if _, err := padded.Inverse(matrix.MustNew(8)); err == nil {
		t.Error("Inverse with wrong dimensionality should fail")
	}
}

func roundTrip(t *testing.T, hn *HN, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	m, err := matrix.New(hn.InputDims()...)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Data()
	for i := range data {
		data[i] = math.Floor(r.Float64()*20) - 5
	}
	c, err := hn.Forward(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := hn.Inverse(c)
	if err != nil {
		t.Fatal(err)
	}
	if !back.AlmostEqual(m, 1e-8) {
		d, _ := back.MaxAbsDiff(m)
		t.Fatalf("round trip failed, max diff %v", d)
	}
}

func TestRoundTrip1DOrdinal(t *testing.T) { roundTrip(t, mustHN(t, Ordinal(16)), 1) }
func TestRoundTrip1DPadded(t *testing.T)  { roundTrip(t, mustHN(t, Ordinal(13)), 2) }
func TestRoundTrip1DNominal(t *testing.T) { roundTrip(t, mustHN(t, Nominal(fig3Hierarchy(t))), 3) }
func TestRoundTrip2DOrdinal(t *testing.T) { roundTrip(t, mustHN(t, Ordinal(8), Ordinal(4)), 4) }
func TestRoundTrip2DMixed(t *testing.T) {
	roundTrip(t, mustHN(t, Ordinal(7), Nominal(fig3Hierarchy(t))), 5)
}
func TestRoundTrip2DNominals(t *testing.T) {
	roundTrip(t, mustHN(t, Nominal(fig3Hierarchy(t)), Nominal(fig3Hierarchy(t))), 6)
}

func TestRoundTrip4DCensusShape(t *testing.T) {
	// The paper's schema shape: ordinal, tiny nominal, bigger nominal, ordinal.
	gender, err := hierarchy.Flat(2)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := hierarchy.ThreeLevel(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	hn := mustHN(t, Ordinal(11), Nominal(gender), Nominal(occ), Ordinal(9))
	roundTrip(t, hn, 7)
}

func TestLinearity(t *testing.T) {
	hn := mustHN(t, Ordinal(4), Nominal(fig3Hierarchy(t)))
	r := rng.New(31)
	mk := func() *matrix.Matrix {
		m, _ := matrix.New(hn.InputDims()...)
		data := m.Data()
		for i := range data {
			data[i] = r.Float64()*10 - 5
		}
		return m
	}
	x, y := mk(), mk()
	a := 1.75
	combo := x.Clone()
	combo.Scale(a)
	if err := combo.AddMatrix(y); err != nil {
		t.Fatal(err)
	}
	tx, _ := hn.Forward(x)
	ty, _ := hn.Forward(y)
	tc, _ := hn.Forward(combo)
	want := tx.Clone()
	want.Scale(a)
	if err := want.AddMatrix(ty); err != nil {
		t.Fatal(err)
	}
	if !tc.AlmostEqual(want, 1e-9) {
		t.Fatal("HN transform is not linear")
	}
}

func TestGeneralizedSensitivityFormula(t *testing.T) {
	h := fig3Hierarchy(t)
	cases := []struct {
		hn   *HN
		want float64
	}{
		{mustHN(t, Ordinal(8)), 4},                           // 1+log2(8)
		{mustHN(t, Ordinal(5)), 4},                           // pads to 8
		{mustHN(t, Nominal(h)), 3},                           // height
		{mustHN(t, Ordinal(8), Nominal(h)), 12},              // 4·3
		{mustHN(t, Ordinal(2), Ordinal(2)), 4},               // 2·2
		{mustHN(t, Ordinal(16), Ordinal(4), Nominal(h)), 45}, // 5·3·3
	}
	for i, c := range cases {
		if got := c.hn.GeneralizedSensitivity(); got != c.want {
			t.Errorf("case %d: GS = %v, want %v", i, got, c.want)
		}
	}
}

// TestGeneralizedSensitivityEmpirical verifies Theorem 2 with equality:
// for power-of-two ordinal dims and chain-free hierarchies, a single-entry
// change of magnitude δ moves the weighted coefficient L1 by exactly
// ∏P(A_i)·δ.
func TestGeneralizedSensitivityEmpirical(t *testing.T) {
	h := fig3Hierarchy(t)
	configs := []*HN{
		mustHN(t, Ordinal(8)),
		mustHN(t, Nominal(h)),
		mustHN(t, Ordinal(4), Ordinal(8)),
		mustHN(t, Ordinal(4), Nominal(h)),
		mustHN(t, Nominal(h), Nominal(h)),
	}
	r := rng.New(13)
	for ci, hn := range configs {
		m, err := matrix.New(hn.InputDims()...)
		if err != nil {
			t.Fatal(err)
		}
		data := m.Data()
		for i := range data {
			data[i] = math.Floor(r.Float64() * 9)
		}
		base, err := hn.Forward(m)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			mod := m.Clone()
			pos := r.Intn(m.Len())
			delta := 1 + r.Float64()*2
			mod.Data()[pos] += delta
			pert, err := hn.Forward(mod)
			if err != nil {
				t.Fatal(err)
			}
			weighted := 0.0
			coords := make([]int, hn.NumDims())
			bd, pd := base.Data(), pert.Data()
			for off := range pd {
				d := math.Abs(pd[off] - bd[off])
				if d == 0 {
					continue
				}
				pert.Coords(off, coords)
				weighted += hn.Weight(coords...) * d
			}
			want := hn.GeneralizedSensitivity() * delta
			if math.Abs(weighted-want) > 1e-8*want {
				t.Fatalf("config %d trial %d: weighted change %v, want %v", ci, trial, weighted, want)
			}
		}
	}
}

// TestPaddedSensitivityUpperBound: with non-power-of-two ordinal sizes the
// entry change still respects the bound computed from padded sizes.
func TestPaddedSensitivityUpperBound(t *testing.T) {
	hn := mustHN(t, Ordinal(5), Ordinal(3))
	r := rng.New(17)
	m, _ := matrix.New(5, 3)
	base, _ := hn.Forward(m)
	for trial := 0; trial < 10; trial++ {
		mod := m.Clone()
		mod.Data()[r.Intn(m.Len())] += 1
		pert, _ := hn.Forward(mod)
		weighted := 0.0
		coords := make([]int, 2)
		bd, pd := base.Data(), pert.Data()
		for off := range pd {
			d := math.Abs(pd[off] - bd[off])
			if d == 0 {
				continue
			}
			pert.Coords(off, coords)
			weighted += hn.Weight(coords...) * d
		}
		if weighted > hn.GeneralizedSensitivity()+1e-9 {
			t.Fatalf("weighted change %v exceeds bound %v", weighted, hn.GeneralizedSensitivity())
		}
	}
}

func TestWeightPanicsOnBadCoords(t *testing.T) {
	hn := mustHN(t, Ordinal(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Weight with wrong coord count did not panic")
		}
	}()
	hn.Weight(1, 2)
}

// TestTheorem3VarianceBound Monte-Carlo-checks the multi-dimensional
// utility bound on a small mixed-dimension transform.
func TestTheorem3VarianceBound(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	h := fig3Hierarchy(t)
	hn := mustHN(t, Ordinal(4), Nominal(h))
	sigma := 1.0
	// Theorem 3: σ²·∏H(A_i), with H = (2+log₂ m)/2 for the ordinal
	// dimension (m = 4) and Lemma 5's 4 for the nominal one.
	bound := (2 + 2) / 2.0 * 4 * sigma * sigma

	r := rng.New(2024)
	const trials = 3000
	// Query: rows 1..2 × the subtree of the first internal node (leaves 0..2).
	sumSq := 0.0
	cd := hn.CoeffDims()
	coords := make([]int, 2)
	for trial := 0; trial < trials; trial++ {
		c, err := matrix.New(cd...)
		if err != nil {
			t.Fatal(err)
		}
		data := c.Data()
		for off := range data {
			c.Coords(off, coords)
			w := hn.Weight(coords...)
			if w == 0 {
				continue
			}
			data[off] = r.Laplace(sigma / (math.Sqrt2 * w))
		}
		rec, err := hn.Inverse(c)
		if err != nil {
			t.Fatal(err)
		}
		q := 0.0
		for i := 1; i <= 2; i++ {
			for j := 0; j <= 2; j++ {
				q += rec.At(i, j)
			}
		}
		sumSq += q * q
	}
	empirical := sumSq / trials
	if empirical > bound*1.10 {
		t.Fatalf("empirical variance %v exceeds Theorem 3 bound %v", empirical, bound)
	}
}

// Property: round trip is identity for random 2-D mixed shapes.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, sRaw, gRaw, lRaw uint8) bool {
		size := int(sRaw%12) + 1
		g := int(gRaw%4) + 1
		l := int(lRaw%4) + 1
		h, err := hierarchy.ThreeLevel(g, l)
		if err != nil {
			return false
		}
		hn, err := New(Ordinal(size), Nominal(h))
		if err != nil {
			return false
		}
		r := rng.New(seed)
		m, err := matrix.New(hn.InputDims()...)
		if err != nil {
			return false
		}
		data := m.Data()
		for i := range data {
			data[i] = r.Float64()*6 - 3
		}
		c, err := hn.Forward(m)
		if err != nil {
			return false
		}
		back, err := hn.Inverse(c)
		if err != nil {
			return false
		}
		return back.AlmostEqual(m, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
