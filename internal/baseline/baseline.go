// Package baseline implements HWTOrdinalized, the §V-D alternative that
// handles nominal attributes by imposing the hierarchy's total order and
// applying the ordinal Haar transform. It is asymptotically worse than
// the nominal wavelet transform (O(log³m) vs O(h²) variance) and is kept
// as an ablation. The paper's main comparator, Dwork et al.'s Basic
// mechanism (§II-B), is not here: it is core.PublishMatrix with every
// attribute in SA.
package baseline

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/privacy"
	"repro/internal/transform"
)

// HWTResult is an HWTOrdinalized release.
type HWTResult struct {
	Noisy   *matrix.Matrix
	Lambda  float64
	Rho     float64
	Epsilon float64
}

// HWTOrdinalized publishes via Privelet but treats every nominal
// dimension as ordinal under the hierarchy's imposed leaf order (§V-A's
// "one way to circumvent"), so the Haar transform is used everywhere.
// Subtree predicates remain contiguous intervals, so queries still work;
// only the noise profile differs. The input matrix is not modified.
func HWTOrdinalized(m *matrix.Matrix, schema *dataset.Schema, epsilon float64, seed uint64) (*HWTResult, error) {
	if err := privacy.CheckEpsilon(epsilon); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	specs := make([]transform.Spec, schema.NumAttrs())
	for i := 0; i < schema.NumAttrs(); i++ {
		specs[i] = transform.Ordinal(schema.Attr(i).Size)
	}
	hn, err := transform.New(specs...)
	if err != nil {
		return nil, err
	}
	got, want := m.Dims(), schema.Dims()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return nil, fmt.Errorf("baseline: matrix shape %v does not match schema %v", got, want)
		}
	}
	rho := hn.GeneralizedSensitivity()
	lambda, err := privacy.Lambda(epsilon, rho)
	if err != nil {
		return nil, err
	}
	weightVecs := make([][]float64, hn.NumDims())
	for i := range weightVecs {
		weightVecs[i] = hn.WeightVector(i)
	}
	c, err := hn.Forward(m)
	if err != nil {
		return nil, err
	}
	if err := privacy.InjectLaplace(c, weightVecs, lambda, seed); err != nil {
		return nil, err
	}
	noisy, err := hn.Inverse(c)
	if err != nil {
		return nil, err
	}
	return &HWTResult{Noisy: noisy, Lambda: lambda, Rho: rho, Epsilon: epsilon}, nil
}
