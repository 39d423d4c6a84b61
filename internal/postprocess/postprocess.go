// Package postprocess refines a released noisy frequency matrix without
// touching the private data, so every operation here is privacy-free
// post-processing (§III-A: the third Privelet step "does not utilize any
// information from T or M"; differential privacy is closed under
// post-processing).
//
// The refinements target the two cosmetic defects Laplace releases have —
// negative counts and non-integer counts — which Barak et al. (§VIII)
// treat as first-class goals. They typically help small queries and never
// change the privacy level.
package postprocess

import (
	"math"

	"repro/internal/matrix"
)

// NonNegative clamps every entry of m to ≥ 0 in place and returns m.
func NonNegative(m *matrix.Matrix) *matrix.Matrix {
	data := m.Data()
	for i, v := range data {
		if v < 0 {
			data[i] = 0
		}
	}
	return m
}

// Round rounds every entry of m to the nearest integer in place and
// returns m.
func Round(m *matrix.Matrix) *matrix.Matrix {
	data := m.Data()
	for i, v := range data {
		data[i] = math.Round(v)
	}
	return m
}

// Sanitize applies NonNegative then Round — the conventional "counts are
// non-negative integers" cleanup.
func Sanitize(m *matrix.Matrix) *matrix.Matrix {
	return Round(NonNegative(m))
}
