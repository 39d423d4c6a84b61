package nominal

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// figure3 builds the paper's Figure 3 hierarchy: root with two internal
// nodes, each covering three leaves.
func figure3(t testing.TB) *Transform {
	t.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Figure 3 input frequency vector and expected coefficients (level order:
// c0 root, c1, c2 internals, c3..c8 leaves).
var (
	figure3Input  = []float64{9, 3, 6, 2, 8, 2}
	figure3Coeffs = []float64{30, 3, -3, 3, -3, 0, -2, 4, -2}
)

func TestPaperFigure3Forward(t *testing.T) {
	tr := figure3(t)
	got, err := tr.Forward(figure3Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("coefficient count = %d, want 9", len(got))
	}
	for i, want := range figure3Coeffs {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("c%d = %v, want %v", i, got[i], want)
		}
	}
}

func TestPaperExample3Reconstruction(t *testing.T) {
	// Example 3: v1 = 9 = c3 + c0/2/3 + c1/3.
	c := figure3Coeffs
	v1 := c[3] + c[0]/2/3 + c[1]/3
	if v1 != 9 {
		t.Fatalf("Example 3 arithmetic: v1 = %v, want 9", v1)
	}
	tr := figure3(t)
	rec, err := tr.Inverse(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range figure3Input {
		if math.Abs(rec[i]-want) > 1e-12 {
			t.Errorf("v%d = %v, want %v", i+1, rec[i], want)
		}
	}
}

func TestOverCompleteness(t *testing.T) {
	// §V-A: m' − m equals the number of internal nodes of H: Figure 3's
	// root and its two groups.
	tr := figure3(t)
	if tr.OutputSize()-tr.InputSize() != 3 {
		t.Fatalf("over-completeness: out=%d in=%d, want 3 internal nodes",
			tr.OutputSize(), tr.InputSize())
	}
}

func TestSiblingGroupsSumToZero(t *testing.T) {
	// By construction, every sibling group of noiseless coefficients sums
	// to zero (each is leaf-sum minus the group average).
	tr := figure3(t)
	c, err := tr.Forward(figure3Input)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Hierarchy().Nodes() {
		if n.IsLeaf() {
			continue
		}
		sum := 0.0
		for _, ch := range n.Children {
			sum += c[ch.ID]
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("sibling group under %q sums to %v, want 0", n.Label, sum)
		}
	}
}

func TestMeanSubtractRestoresZeroSums(t *testing.T) {
	tr := figure3(t)
	c, _ := tr.Forward(figure3Input)
	r := rng.New(5)
	for i := range c {
		c[i] += r.Laplace(2)
	}
	if err := tr.MeanSubtract(c); err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Hierarchy().Nodes() {
		if n.IsLeaf() {
			continue
		}
		sum := 0.0
		for _, ch := range n.Children {
			sum += c[ch.ID]
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("after MeanSubtract, group under %q sums to %v", n.Label, sum)
		}
	}
}

func TestMeanSubtractIdempotentOnCleanCoefficients(t *testing.T) {
	tr := figure3(t)
	c, _ := tr.Forward(figure3Input)
	orig := append([]float64(nil), c...)
	if err := tr.MeanSubtract(c); err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if math.Abs(c[i]-orig[i]) > 1e-12 {
			t.Fatalf("MeanSubtract changed clean coefficient %d: %v -> %v", i, orig[i], c[i])
		}
	}
}

func TestWeights(t *testing.T) {
	tr := figure3(t)
	w := tr.Weights()
	// Base weight 1; children of root (fanout 2): 2/(2·2−2) = 1;
	// children of the internals (fanout 3): 3/(2·3−2) = 3/4.
	want := []float64{1, 1, 1, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75}
	for i, ww := range want {
		if w[i] != ww {
			t.Errorf("W_Nom(c%d) = %v, want %v", i, w[i], ww)
		}
	}
}

func TestWeightFanout1(t *testing.T) {
	// A chain (fanout-1 internal node) yields structurally-zero child
	// coefficients; Weight must report the no-noise sentinel 0.
	root := &hierarchy.Node{Label: "r", Children: []*hierarchy.Node{
		{Label: "chain", Children: []*hierarchy.Node{{Label: "leaf"}}},
	}}
	h, err := hierarchy.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	// Node IDs: 0 root, 1 chain, 2 leaf. Root fanout 1 ⇒ c1 weight 0;
	// chain fanout 1 ⇒ c2 weight 0.
	if tr.Weight(0) != 1 {
		t.Errorf("base weight = %v, want 1", tr.Weight(0))
	}
	if tr.Weight(1) != 0 || tr.Weight(2) != 0 {
		t.Errorf("chain weights = %v, %v, want 0, 0", tr.Weight(1), tr.Weight(2))
	}
	// And those coefficients are indeed identically zero.
	c, err := tr.Forward([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 7 || c[1] != 0 || c[2] != 0 {
		t.Errorf("chain coefficients = %v, want [7 0 0]", c)
	}
	// Round trip still works.
	v, err := tr.Inverse(c)
	if err != nil || v[0] != 7 {
		t.Errorf("chain inverse = %v, %v", v, err)
	}
}

func TestGeneralizedSensitivityFormula(t *testing.T) {
	tr := figure3(t)
	if got := tr.GeneralizedSensitivity(); got != 3 {
		t.Fatalf("GS = %v, want 3 (height)", got)
	}
}

// TestGeneralizedSensitivityEmpirical verifies Lemma 4: offsetting one
// entry by δ produces weighted coefficient change exactly h·δ (for
// hierarchies without fanout-1 chains).
func TestGeneralizedSensitivityEmpirical(t *testing.T) {
	r := rng.New(11)
	shapes := [][2]int{{2, 3}, {4, 4}, {3, 7}, {22, 23}}
	for _, shape := range shapes {
		h, err := hierarchy.ThreeLevel(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(h)
		if err != nil {
			t.Fatal(err)
		}
		m := h.LeafCount()
		v := make([]float64, m)
		for i := range v {
			v[i] = math.Floor(r.Float64() * 20)
		}
		base, _ := tr.Forward(v)
		w := tr.Weights()
		for trial := 0; trial < 5; trial++ {
			pos := r.Intn(m)
			delta := 1 + r.Float64()*3
			mod := append([]float64(nil), v...)
			mod[pos] += delta
			pert, _ := tr.Forward(mod)
			weighted := 0.0
			for k := range base {
				weighted += w[k] * math.Abs(pert[k]-base[k])
			}
			want := tr.GeneralizedSensitivity() * delta
			if math.Abs(weighted-want) > 1e-9*want {
				t.Fatalf("shape %v: weighted change %v, want %v", shape, weighted, want)
			}
		}
	}
}

// TestDeepHierarchySensitivity checks Lemma 4 on a 4-level tree.
func TestDeepHierarchySensitivity(t *testing.T) {
	h, err := hierarchy.FromFanouts(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	if tr.GeneralizedSensitivity() != 4 {
		t.Fatalf("GS = %v, want 4", tr.GeneralizedSensitivity())
	}
	m := h.LeafCount()
	v := make([]float64, m)
	base, _ := tr.Forward(v)
	mod := append([]float64(nil), v...)
	mod[3] += 2.5
	pert, _ := tr.Forward(mod)
	w := tr.Weights()
	weighted := 0.0
	for k := range base {
		weighted += w[k] * math.Abs(pert[k]-base[k])
	}
	if math.Abs(weighted-4*2.5) > 1e-9 {
		t.Fatalf("deep tree weighted change = %v, want 10", weighted)
	}
}

func TestInputValidation(t *testing.T) {
	tr := figure3(t)
	if _, err := tr.Forward(make([]float64, 5)); err == nil {
		t.Error("Forward with wrong length should fail")
	}
	if _, err := tr.Inverse(make([]float64, 6)); err == nil {
		t.Error("Inverse with wrong length should fail")
	}
	if err := tr.MeanSubtract(make([]float64, 3)); err == nil {
		t.Error("MeanSubtract with wrong length should fail")
	}
	if _, err := New(nil); err == nil {
		t.Error("New(nil) should fail")
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := rng.New(21)
	shapes := [][]int{{2}, {5}, {2, 3}, {4, 8}, {2, 3, 4}, {3, 3, 3}}
	for _, fo := range shapes {
		h, err := hierarchy.FromFanouts(fo...)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(h)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, h.LeafCount())
		for i := range v {
			v[i] = r.Float64()*100 - 50
		}
		c, err := tr.Forward(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := tr.Inverse(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if math.Abs(back[i]-v[i]) > 1e-9 {
				t.Fatalf("shape %v: round trip failed at %d: %v vs %v", fo, i, back[i], v[i])
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	tr := figure3(t)
	r := rng.New(23)
	m := tr.InputSize()
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	a := -2.5
	combo := make([]float64, m)
	for i := range combo {
		combo[i] = a*x[i] + y[i]
	}
	tx, _ := tr.Forward(x)
	ty, _ := tr.Forward(y)
	tc, _ := tr.Forward(combo)
	for i := range tc {
		want := a*tx[i] + ty[i]
		if math.Abs(tc[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, tc[i], want)
		}
	}
}

func TestFlatHierarchy(t *testing.T) {
	// h = 2: base + one sibling group of all leaves.
	h, err := hierarchy.Flat(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 3, 6}
	c, err := tr.Forward(v)
	if err != nil {
		t.Fatal(err)
	}
	// Base = 12; leaves: value − 3 (the average).
	want := []float64{12, -2, -1, 0, 3}
	for i, wv := range want {
		if math.Abs(c[i]-wv) > 1e-12 {
			t.Errorf("flat c%d = %v, want %v", i, c[i], wv)
		}
	}
	if tr.GeneralizedSensitivity() != 2 {
		t.Errorf("flat GS = %v, want 2", tr.GeneralizedSensitivity())
	}
	// W_Nom for leaves: f/(2f−2) with f = 4 → 2/3.
	for i := 1; i <= 4; i++ {
		if math.Abs(tr.Weight(i)-2.0/3) > 1e-12 {
			t.Errorf("flat weight c%d = %v, want 2/3", i, tr.Weight(i))
		}
	}
}

// TestLemma5VarianceBound checks the 4σ² utility bound by Monte Carlo on
// the Figure 3 hierarchy for a range of query nodes.
func TestLemma5VarianceBound(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	tr := figure3(t)
	h := tr.Hierarchy()
	r := rng.New(777)
	const trials = 4000
	sigma := 1.5
	w := tr.Weights()

	// Queries: every node of the hierarchy (leaf ⇒ point query; internal
	// ⇒ subtree roll-up).
	for _, q := range h.Nodes() {
		sumSq := 0.0
		noisy := make([]float64, tr.OutputSize())
		for trial := 0; trial < trials; trial++ {
			for k := range noisy {
				if w[k] == 0 {
					noisy[k] = 0
					continue
				}
				noisy[k] = r.Laplace(sigma / (math.Sqrt2 * w[k]))
			}
			if err := tr.MeanSubtract(noisy); err != nil {
				t.Fatal(err)
			}
			rec, err := tr.Inverse(noisy)
			if err != nil {
				t.Fatal(err)
			}
			qv := 0.0
			for i := q.LeafLo; i <= q.LeafHi; i++ {
				qv += rec[i]
			}
			sumSq += qv * qv
		}
		empirical := sumSq / trials
		bound := 4 * sigma * sigma
		if empirical > bound*1.10 {
			t.Fatalf("query %q: empirical variance %v exceeds Lemma 5 bound %v", q.Label, empirical, bound)
		}
	}
}

// Property: round trip is the identity for random two-level shapes.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, gRaw, lRaw uint8) bool {
		g := int(gRaw%5) + 1
		l := int(lRaw%6) + 1
		h, err := hierarchy.ThreeLevel(g, l)
		if err != nil {
			return false
		}
		tr, err := New(h)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		v := make([]float64, h.LeafCount())
		for i := range v {
			v[i] = r.Float64()*40 - 20
		}
		c, err := tr.Forward(v)
		if err != nil {
			return false
		}
		back, err := tr.Inverse(c)
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

// Property: mean subtraction never changes what noiseless coefficients
// reconstruct to (it is the identity on the image of Forward).
func TestMeanSubtractPreservesImageQuick(t *testing.T) {
	f := func(seed uint64, gRaw uint8) bool {
		g := int(gRaw%4) + 2
		h, err := hierarchy.ThreeLevel(g, 3)
		if err != nil {
			return false
		}
		tr, err := New(h)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		v := make([]float64, h.LeafCount())
		for i := range v {
			v[i] = r.Float64() * 10
		}
		c, err := tr.Forward(v)
		if err != nil {
			return false
		}
		if err := tr.MeanSubtract(c); err != nil {
			return false
		}
		back, err := tr.Inverse(c)
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
