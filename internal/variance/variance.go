// Package variance computes the EXACT noise variance of a range-count
// query answered from a Privelet+ release — not just the worst-case
// bounds of Lemmas 3/5 and Theorem 3. The paper lists per-query utility
// analysis as future work (§IX: "we want to investigate what guarantees
// Privelet may offer for other utility metrics"); this module supplies
// the exact second moment, which also powers workload-aware SA tuning.
//
// # How the exact computation works
//
// The answer of a box query on the reconstructed matrix is a linear form
// ⟨R, η⟩ in the injected coefficient noise η, because every step of the
// inverse HN transform (including nominal mean subtraction) is linear.
// Both the reconstruction weight and the noise scale factorize over
// dimensions:
//
//	R(c)     = ∏_i r_i(c_i)        (box query ⇒ tensor-product weights)
//	Var(η_c) = 2λ²/∏_i W_i(c_i)²   (independent Laplace per coefficient)
//
// so the exact variance collapses to a product of per-dimension sums:
//
//	Var = (#covered SA cells) · 2λ² · ∏_i  Σ_{c_i} (r_i(c_i)/W_i(c_i))²
//
// Per-dimension reconstruction weights:
//
//   - Haar: r(base) = interval length; r(node k) = α−β, the number of
//     in-range leaves under k's left subtree minus its right (Appendix B).
//   - Nominal: first the raw weight U(a) = Σ_{leaf∈range} u(a, leaf) of
//     coefficient a in the Equation-5 recursion, computed bottom-up via
//     U(a) = Σ_children U(child)/fanout(a); then the mean-subtraction
//     map A = blockdiag(I − J/g) is applied (A is symmetric, so the
//     effective weight is U minus its sibling-group mean).
//
// Coefficients with weight 0 (structurally-zero nominal coefficients)
// carry no noise and contribute nothing.
package variance

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/haar"
	"repro/internal/hierarchy"
	"repro/internal/query"
	"repro/internal/transform"
)

// Analyzer computes exact query-noise variances for one (schema, ε, SA)
// publishing configuration. It is immutable and safe for concurrent use.
type Analyzer struct {
	schema *dataset.Schema
	lambda float64
	// per non-SA dimension machinery, indexed by attribute position; an
	// attribute without an entry is in SA.
	dims map[int]*dimAnalyzer
}

type dimAnalyzer struct {
	kind    transform.Kind
	padded  int
	weights []float64
	hier    *hierarchy.Hierarchy
}

// NewAnalyzer builds an analyzer for the release Publish would produce
// with the same schema, epsilon and SA. It reads SA, λ and the weight
// vectors from the publish's own core.Plan.
func NewAnalyzer(schema *dataset.Schema, epsilon float64, sa []string) (*Analyzer, error) {
	plan, err := core.NewPlan(schema, epsilon, sa)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{schema: schema, lambda: plan.Lambda, dims: make(map[int]*dimAnalyzer, len(plan.Rest))}
	for j, i := range plan.Rest {
		attr := schema.Attr(i)
		da := &dimAnalyzer{weights: plan.Weights[j]}
		if attr.Kind == dataset.Ordinal {
			da.kind = transform.KindOrdinal
			da.padded = haar.NextPowerOfTwo(attr.Size)
		} else {
			da.kind = transform.KindNominal
			da.padded = attr.Size
			da.hier = attr.Hier
		}
		a.dims[i] = da
	}
	return a, nil
}

// QueryVariance returns the exact noise variance of the query's answer
// when evaluated on a release with this analyzer's configuration.
func (a *Analyzer) QueryVariance(q query.Query) (float64, error) {
	lo, hi := q.Lo(), q.Hi()
	if len(lo) != a.schema.NumAttrs() {
		return 0, fmt.Errorf("variance: query has %d attributes, schema has %d", len(lo), a.schema.NumAttrs())
	}
	covered := 1.0
	product := 1.0
	for i := 0; i < a.schema.NumAttrs(); i++ {
		da, ok := a.dims[i]
		if !ok {
			covered *= float64(hi[i] - lo[i] + 1)
			continue
		}
		var sum float64
		switch da.kind {
		case transform.KindOrdinal:
			sum = haarWeightSum(da, lo[i], hi[i])
		case transform.KindNominal:
			sum = nominalWeightSum(da, lo[i], hi[i])
		}
		product *= sum
	}
	return covered * 2 * a.lambda * a.lambda * product, nil
}

// haarWeightSum returns Σ_k (r(k)/W(k))² for the interval [lo,hi] along
// a padded Haar dimension.
func haarWeightSum(da *dimAnalyzer, lo, hi int) float64 {
	p := da.padded
	length := float64(hi - lo + 1)
	// Base coefficient: weight = interval length, W = p.
	total := sq(length / da.weights[0])
	// Detail node k at level i covers the leaf block
	// [(k−2^(i−1))·p/2^(i−1), …) of width p/2^(i−1); its left half counts
	// +1, right half −1.
	for k := 1; k < p; k++ {
		level := haar.Level(k)
		width := p >> uint(level-1)
		start := (k - (1 << uint(level-1))) * width
		mid := start + width/2
		alpha := overlap(lo, hi, start, mid-1)
		beta := overlap(lo, hi, mid, start+width-1)
		if alpha == beta {
			continue
		}
		total += sq(float64(alpha-beta) / da.weights[k])
	}
	return total
}

// nominalWeightSum returns Σ_a (r_eff(a)/W(a))² for the leaf interval
// [lo,hi] along a nominal dimension, accounting for mean subtraction.
func nominalWeightSum(da *dimAnalyzer, lo, hi int) float64 {
	nodes := da.hier.Nodes()
	// Raw Equation-5 weights, bottom-up (children have larger IDs).
	raw := make([]float64, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.IsLeaf() {
			if n.LeafLo >= lo && n.LeafLo <= hi {
				raw[i] = 1
			}
			continue
		}
		var s float64
		for _, c := range n.Children {
			s += raw[c.ID]
		}
		raw[i] = s / float64(n.Fanout())
	}
	// Mean subtraction: subtract the sibling-group mean (A symmetric).
	eff := make([]float64, len(nodes))
	eff[0] = raw[0] // base untouched
	for _, n := range nodes {
		if n.IsLeaf() {
			continue
		}
		mean := 0.0
		for _, c := range n.Children {
			mean += raw[c.ID]
		}
		mean /= float64(n.Fanout())
		for _, c := range n.Children {
			eff[c.ID] = raw[c.ID] - mean
		}
	}
	total := 0.0
	for i, w := range da.weights {
		if w == 0 || eff[i] == 0 {
			continue // no noise in this coefficient
		}
		total += sq(eff[i] / w)
	}
	return total
}

func overlap(lo, hi, a, b int) int {
	if lo < a {
		lo = a
	}
	if hi > b {
		hi = b
	}
	if lo > hi {
		return 0
	}
	return hi - lo + 1
}

func sq(x float64) float64 { return x * x }

// WorkloadStats summarizes exact variances over a workload.
type WorkloadStats struct {
	Mean, Max, Min float64
	// P95 is the 95th-percentile variance.
	P95 float64
}

// Workload computes exact variances for every query and summarizes them.
func (a *Analyzer) Workload(qs []query.Query) (WorkloadStats, error) {
	if len(qs) == 0 {
		return WorkloadStats{}, fmt.Errorf("variance: empty workload")
	}
	vars := make([]float64, len(qs))
	var sum float64
	for i, q := range qs {
		v, err := a.QueryVariance(q)
		if err != nil {
			return WorkloadStats{}, err
		}
		vars[i] = v
		sum += v
	}
	sort.Float64s(vars)
	idx := (len(vars) * 95) / 100
	if idx >= len(vars) {
		idx = len(vars) - 1
	}
	return WorkloadStats{
		Mean: sum / float64(len(vars)),
		Max:  vars[len(vars)-1],
		Min:  vars[0],
		P95:  vars[idx],
	}, nil
}

// BestSA exhaustively searches all SA subsets (2^d, d ≤ 16) for the one
// minimizing the workload's mean exact variance — the workload-aware
// tuning the paper sketches as future work. It returns the best SA names
// and the corresponding stats.
func BestSA(schema *dataset.Schema, epsilon float64, qs []query.Query) ([]string, WorkloadStats, error) {
	d := schema.NumAttrs()
	if d > 16 {
		return nil, WorkloadStats{}, fmt.Errorf("variance: too many attributes (%d) for exhaustive search", d)
	}
	if len(qs) == 0 {
		return nil, WorkloadStats{}, fmt.Errorf("variance: empty workload")
	}
	var bestNames []string
	var bestStats WorkloadStats
	first := true
	for mask := 0; mask < 1<<d; mask++ {
		var names []string
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				names = append(names, schema.Attr(i).Name)
			}
		}
		an, err := NewAnalyzer(schema, epsilon, names)
		if err != nil {
			return nil, WorkloadStats{}, err
		}
		stats, err := an.Workload(qs)
		if err != nil {
			return nil, WorkloadStats{}, err
		}
		if first || stats.Mean < bestStats.Mean {
			bestNames, bestStats, first = names, stats, false
		}
	}
	return bestNames, bestStats, nil
}
