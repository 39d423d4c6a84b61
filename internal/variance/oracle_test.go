package variance

// An oracle for the analyzer that shares no code with this repository:
// dpcomp's Privelet (SNIPPETS.md, privelet.py and privelet2D.py), whose
// _wave and _dewave are ported below as written. dpcomp adds Laplace
// noise of magnitude b to every unnormalized Haar coefficient, with
// b = (m+1)/ε in 1-D and (m1+1)(m2+1)/ε in 2-D over a domain padded to
// 2^m (2^m1 × 2^m2). A release is linear in that noise, so a range
// query's exact noise variance is
//
//	2b² · Σ_j (Σ_{x∈range} dewave(e_j)_x)²
//
// over the unit coefficient vectors e_j.
//
// The analyzer must give exactly 4 times that. The factor is the
// neighbour definition, not a difference in the transform: this
// repository follows the paper and sets λ = 2ρ/ε for datasets that
// differ by one substituted tuple, which moves two cells, while dpcomp's
// (m+1)/ε is calibrated for one added or removed tuple. Twice the noise
// magnitude is four times the variance.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// oracleEpsilon is the ε every oracle comparison runs at.
const oracleEpsilon = 0.5

// wave is dpcomp's _wave: m passes, each replacing the first n entries
// by their pairwise sums followed by their pairwise differences.
func wave(x []float64, m int) []float64 {
	y := append([]float64(nil), x...)
	n := len(x)
	for c := 0; c < m; c++ {
		next := make([]float64, n)
		for i := 0; i < n/2; i++ {
			next[i] = y[2*i] + y[2*i+1]
			next[n/2+i] = y[2*i] - y[2*i+1]
		}
		copy(y, next)
		n /= 2
	}
	return y
}

// dewave is dpcomp's _dewave, the inverse of wave: m passes over growing
// prefixes of 2·half entries, each interleaving half-sums and
// half-differences.
func dewave(y []float64, m int) []float64 {
	x := append([]float64(nil), y...)
	half := 1
	for c := 0; c < m; c++ {
		even := make([]float64, half)
		odd := make([]float64, half)
		for i := 0; i < half; i++ {
			even[i] = (x[i] + x[half+i]) / 2
			odd[i] = (x[i] - x[half+i]) / 2
		}
		for i := 0; i < half; i++ {
			x[2*i], x[2*i+1] = even[i], odd[i]
		}
		half *= 2
	}
	return x
}

// log2Ceil is dpcomp's m = ceil(log2(n)).
func log2Ceil(n int) int { return bits.Len(uint(n - 1)) }

// unitDewaves returns dewave(e_j) for every unit vector of length 2^m.
func unitDewaves(m int) [][]float64 {
	p := 1 << m
	out := make([][]float64, p)
	for j := range out {
		e := make([]float64, p)
		e[j] = 1
		out[j] = dewave(e, m)
	}
	return out
}

// oracleVariance1D is dpcomp's exact variance of the range [lo, hi] on a
// domain padded to 2^m, given that domain's unitDewaves.
func oracleVariance1D(dewaves [][]float64, m, lo, hi int) float64 {
	b := float64(m+1) / oracleEpsilon
	var total float64
	for _, d := range dewaves {
		var s float64
		for x := lo; x <= hi; x++ {
			s += d[x]
		}
		total += s * s
	}
	return 2 * b * b * total
}

// dewave2D is privelet2D's decode: dewave every column (length 2^m1),
// then every row (length 2^m2).
func dewave2D(y [][]float64, m1, m2 int) [][]float64 {
	p1, p2 := len(y), len(y[0])
	out := make([][]float64, p1)
	for i := range out {
		out[i] = append([]float64(nil), y[i]...)
	}
	col := make([]float64, p1)
	for j := 0; j < p2; j++ {
		for i := 0; i < p1; i++ {
			col[i] = out[i][j]
		}
		d := dewave(col, m1)
		for i := 0; i < p1; i++ {
			out[i][j] = d[i]
		}
	}
	for i := range out {
		out[i] = dewave(out[i], m2)
	}
	return out
}

// box is an inclusive 2-D range query.
type box struct{ lo1, hi1, lo2, hi2 int }

// oracleVariances2D is dpcomp's exact variance of every box on an
// n1 × n2 domain, each unit coefficient matrix decoded once.
func oracleVariances2D(n1, n2 int, boxes []box) []float64 {
	m1, m2 := log2Ceil(n1), log2Ceil(n2)
	p1, p2 := 1<<m1, 1<<m2
	b := float64((m1+1)*(m2+1)) / oracleEpsilon
	out := make([]float64, len(boxes))
	for j1 := 0; j1 < p1; j1++ {
		for j2 := 0; j2 < p2; j2++ {
			e := make([][]float64, p1)
			for i := range e {
				e[i] = make([]float64, p2)
			}
			e[j1][j2] = 1
			d := dewave2D(e, m1, m2)
			for k, bx := range boxes {
				var s float64
				for x1 := bx.lo1; x1 <= bx.hi1; x1++ {
					for x2 := bx.lo2; x2 <= bx.hi2; x2++ {
						s += d[x1][x2]
					}
				}
				out[k] += s * s
			}
		}
	}
	for k := range out {
		out[k] *= 2 * b * b
	}
	return out
}

// checkFourTimesOracle holds the analyzer's variance to 4× the oracle's
// within a relative 1e-12.
func checkFourTimesOracle(t *testing.T, what string, got, oracle float64) {
	t.Helper()
	if want := 4 * oracle; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("%s: analyzer variance %v, 4 × dpcomp oracle %v (relative gap %.3g)", what, got, want, math.Abs(got-want)/want)
	}
}

// TestOracleWaveRoundTrip: the port reconstructs its input exactly, so
// the oracle below decodes what dpcomp would.
func TestOracleWaveRoundTrip(t *testing.T) {
	x := []float64{3, 0, 7, 1, 2, 2, 9, 4}
	back := dewave(wave(x, 3), 3)
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("dewave(wave(x))[%d] = %v, want %v", i, back[i], x[i])
		}
	}
}

// TestAnalyzerMatchesOracle1D checks every range of an ordinal domain,
// padded (13) and not (16, 64), at ε = 0.5 with no SA.
func TestAnalyzerMatchesOracle1D(t *testing.T) {
	for _, n := range []int{13, 16, 64} {
		s := dataset.MustSchema(dataset.OrdinalAttr("A", n))
		an, err := NewAnalyzer(s, oracleEpsilon, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := log2Ceil(n)
		dewaves := unitDewaves(m)
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				q, err := query.NewBuilder(s).Range("A", lo, hi).Build()
				if err != nil {
					t.Fatal(err)
				}
				got, err := an.QueryVariance(q)
				if err != nil {
					t.Fatal(err)
				}
				checkFourTimesOracle(t, fmt.Sprintf("n=%d %s", n, q.Spec(s)), got, oracleVariance1D(dewaves, m, lo, hi))
			}
		}
	}
}

// TestAnalyzerMatchesOracle2D checks a grid of boxes on a 10 × 16
// domain (the first attribute padded to 16) at ε = 0.5 with no SA.
func TestAnalyzerMatchesOracle2D(t *testing.T) {
	const n1, n2 = 10, 16
	s := dataset.MustSchema(dataset.OrdinalAttr("A", n1), dataset.OrdinalAttr("B", n2))
	an, err := NewAnalyzer(s, oracleEpsilon, nil)
	if err != nil {
		t.Fatal(err)
	}
	var boxes []box
	for _, r1 := range intervals([]int{0, 2, 5, 9}) {
		for _, r2 := range intervals([]int{0, 3, 7, 8, 15}) {
			boxes = append(boxes, box{r1[0], r1[1], r2[0], r2[1]})
		}
	}
	oracle := oracleVariances2D(n1, n2, boxes)
	for k, bx := range boxes {
		q, err := query.NewBuilder(s).Range("A", bx.lo1, bx.hi1).Range("B", bx.lo2, bx.hi2).Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := an.QueryVariance(q)
		if err != nil {
			t.Fatal(err)
		}
		checkFourTimesOracle(t, q.Spec(s), got, oracle[k])
	}
}

// intervals returns every [lo, hi] with lo ≤ hi drawn from the points.
func intervals(points []int) [][2]int {
	var out [][2]int
	for i, lo := range points {
		for _, hi := range points[i:] {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
