// Package nominal implements the paper's novel nominal wavelet transform
// (§V), the instantiation of Privelet for attributes whose domains carry a
// hierarchy instead of a total order.
//
// Given a frequency vector over the |A| leaves of a hierarchy H, the
// transform produces one coefficient per node of H (it is over-complete by
// the number of internal nodes, §V-A):
//
//   - the base coefficient (root) holds the leaf-sum of the whole vector;
//   - every other node's coefficient is its leaf-sum minus the average
//     leaf-sum of its parent's children.
//
// Entries are reconstructed by Equation 5. Before reconstruction of noisy
// coefficients, the mean-subtraction refinement (§V-B) recenters every
// sibling group to sum to zero, which restores the structural invariant
// the noiseless coefficients satisfy and is what the 4σ² utility bound of
// Lemma 5 relies on. Mean subtraction reads nothing but the noisy
// coefficients, so it does not affect privacy (§III-A).
//
// Coefficient layout: level order over the nodes of H, root (base) first —
// node ID i of internal/hierarchy owns coefficient index i. This is the
// layout the HN transform requires.
package nominal

import (
	"fmt"

	"repro/internal/hierarchy"
)

// Transform is a nominal wavelet transform bound to one hierarchy. It is
// immutable and safe for concurrent use.
type Transform struct {
	h *hierarchy.Hierarchy
}

// New returns a Transform over h. The hierarchy must have at least one
// leaf (guaranteed by hierarchy.Build).
func New(h *hierarchy.Hierarchy) (*Transform, error) {
	if h == nil {
		return nil, fmt.Errorf("nominal: nil hierarchy")
	}
	return &Transform{h: h}, nil
}

// Hierarchy returns the hierarchy the transform is bound to.
func (t *Transform) Hierarchy() *hierarchy.Hierarchy { return t.h }

// InputSize returns the required input vector length |A|.
func (t *Transform) InputSize() int { return t.h.LeafCount() }

// OutputSize returns the coefficient count: one per node of H.
func (t *Transform) OutputSize() int { return t.h.NodeCount() }

// Forward computes the nominal wavelet coefficients of v, whose length
// must equal InputSize. Coefficient i belongs to hierarchy node ID i.
func (t *Transform) Forward(v []float64) ([]float64, error) {
	if len(v) != t.InputSize() {
		return nil, fmt.Errorf("nominal: input length %d, want %d", len(v), t.InputSize())
	}
	out := make([]float64, t.OutputSize())
	t.ForwardIntoScratch(v, out, make([]float64, t.OutputSize()))
	return out, nil
}

// ForwardIntoScratch is Forward into a caller-provided slice of length
// OutputSize, with caller-provided scratch of length ≥ OutputSize, so
// per-worker transform kernels allocate nothing per call. scratch must
// alias neither src nor dst, and dst must not alias src.
func (t *Transform) ForwardIntoScratch(src, dst, scratch []float64) {
	nodes := t.h.Nodes()
	// leafSum per node, computable in one reverse level-order sweep
	// because children always have larger IDs than their parent.
	sums := scratch[:len(nodes)]
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.IsLeaf() {
			sums[i] = src[n.LeafLo]
			continue
		}
		s := 0.0
		for _, c := range n.Children {
			s += sums[c.ID]
		}
		sums[i] = s
	}
	for i, n := range nodes {
		if n.Parent == nil {
			dst[i] = sums[i] // base coefficient: total leaf-sum
			continue
		}
		p := n.Parent
		avg := sums[p.ID] / float64(p.Fanout())
		dst[i] = sums[i] - avg
	}
}

// Inverse reconstructs the frequency vector from coefficients via
// Equation 5. The coefficient slice must have length OutputSize.
func (t *Transform) Inverse(coeffs []float64) ([]float64, error) {
	if len(coeffs) != t.OutputSize() {
		return nil, fmt.Errorf("nominal: coefficient length %d, want %d", len(coeffs), t.OutputSize())
	}
	out := make([]float64, t.InputSize())
	t.InverseInto(coeffs, out)
	return out, nil
}

// InverseInto is Inverse into a caller-provided slice of length InputSize.
// dst must not alias src.
func (t *Transform) InverseInto(src, dst []float64) {
	t.InverseIntoScratch(src, dst, make([]float64, t.OutputSize()))
}

// InverseIntoScratch is InverseInto with caller-provided scratch of
// length ≥ OutputSize. scratch must alias neither src nor dst.
func (t *Transform) InverseIntoScratch(src, dst, scratch []float64) {
	nodes := t.h.Nodes()
	// Recover each node's (noisy) leaf-sum top-down:
	//   leafSum(root) = c_root
	//   leafSum(N)    = c_N + leafSum(parent)/fanout(parent),
	// which is exactly the recursion behind Equation 5.
	sums := scratch[:len(nodes)]
	for i, n := range nodes {
		if n.Parent == nil {
			sums[i] = src[i]
			continue
		}
		p := n.Parent
		sums[i] = src[i] + sums[p.ID]/float64(p.Fanout())
	}
	for _, leaf := range t.h.Leaves() {
		dst[leaf.LeafLo] = sums[leaf.ID]
	}
}

// MeanSubtract applies the §V-B refinement in place: for every sibling
// group (maximal set of coefficients sharing a parent in the decomposition
// tree) subtract the group mean so the group sums to zero. The base
// coefficient is left untouched.
func (t *Transform) MeanSubtract(coeffs []float64) error {
	if len(coeffs) != t.OutputSize() {
		return fmt.Errorf("nominal: coefficient length %d, want %d", len(coeffs), t.OutputSize())
	}
	for _, n := range t.h.Nodes() {
		if n.IsLeaf() {
			continue
		}
		mean := 0.0
		for _, c := range n.Children {
			mean += coeffs[c.ID]
		}
		mean /= float64(n.Fanout())
		for _, c := range n.Children {
			coeffs[c.ID] -= mean
		}
	}
	return nil
}

// Weight returns W_Nom for coefficient index k (§V-B): 1 for the base
// coefficient, otherwise f/(2f−2) where f is the fanout of the
// coefficient's parent in the decomposition tree. A fanout-1 sibling group
// has structurally-zero coefficients that need no noise; Weight reports
// +Inf-free sentinel 0 for them — callers must treat weight 0 as "add no
// noise" (rng.Laplace does this for magnitude 0 via λ/W conventions; see
// Magnitudes in internal/privacy).
func (t *Transform) Weight(k int) float64 {
	n := t.h.Nodes()[k]
	if n.Parent == nil {
		return 1
	}
	f := n.Parent.Fanout()
	if f == 1 {
		return 0 // structurally zero coefficient: no noise required
	}
	return float64(f) / float64(2*f-2)
}

// Weights returns the full W_Nom vector aligned with Forward's layout.
func (t *Transform) Weights() []float64 {
	w := make([]float64, t.OutputSize())
	for k := range w {
		w[k] = t.Weight(k)
	}
	return w
}

// GeneralizedSensitivity returns the generalized sensitivity of the
// transform with respect to W_Nom: the height h of the hierarchy
// (Lemma 4).
func (t *Transform) GeneralizedSensitivity() float64 {
	return float64(t.h.Height())
}
