// Package haar implements the one-dimensional Haar wavelet transform in
// the exact normalization the Privelet paper uses (§IV-A).
//
// Given a vector of m = 2^l values, the transform builds a full binary
// decomposition tree over the entries and emits one coefficient per
// internal node — half the difference of the left and right subtree
// averages — plus a base coefficient holding the overall mean. Any entry
// is reconstructed as
//
//	v = c0 + Σ_i g_i·c_i            (Equation 3)
//
// where c_i ranges over the entry's ancestors and g_i is ±1 depending on
// the subtree the entry falls in.
//
// Coefficient layout. Coefficients are stored base-first in level order:
// index 0 is the base coefficient c0, index 1 the root of the
// decomposition tree, and node k (k ≥ 1) has children 2k and 2k+1. For
// m = 8 this is exactly the c0..c7 labeling of the paper's Figure 2, and
// it is the layout the multi-dimensional HN transform requires (§VI-A:
// "sorted based on a level-order traversal ... the base coefficient
// always ranks first").
package haar

import (
	"fmt"
	"math/bits"
)

// IsPowerOfTwo reports whether m is a positive power of two.
func IsPowerOfTwo(m int) bool { return m > 0 && m&(m-1) == 0 }

// NextPowerOfTwo returns the smallest power of two ≥ m (m ≥ 1).
func NextPowerOfTwo(m int) int {
	if m <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(m-1))
}

// Log2 returns log₂(m) for a power of two m.
func Log2(m int) int { return bits.TrailingZeros(uint(m)) }

// Forward computes the Haar wavelet coefficients of v, whose length must
// be a power of two. The result has the same length: coefficient 0 is the
// base (the mean of v), coefficient k ≥ 1 belongs to the decomposition-
// tree node k in level order.
func Forward(v []float64) ([]float64, error) {
	m := len(v)
	if !IsPowerOfTwo(m) {
		return nil, fmt.Errorf("haar: length %d is not a power of two", m)
	}
	coeffs := make([]float64, m)
	ForwardPaddedIntoScratch(v, coeffs, make([]float64, m))
	return coeffs, nil
}

// ForwardPaddedIntoScratch transforms src zero-padded to len(dst), which
// must be a power of two ≥ len(src) (§IV's dummy-entry remedy). The
// padding happens directly in scratch (length ≥ len(dst)), so callers pay
// a single copy of src per vector and need no separate padding buffer.
// scratch must alias neither src nor dst.
func ForwardPaddedIntoScratch(src, dst, scratch []float64) {
	m := len(dst)
	if m == 1 {
		dst[0] = src[0]
		return
	}
	// avg holds subtree averages for the current level, reused bottom-up.
	avg := scratch[:m]
	n := copy(avg, src)
	for j := n; j < m; j++ {
		avg[j] = 0
	}
	// Nodes at the deepest level occupy indices [m/2, m) of dst; each
	// level up halves the index range. After processing level i the avg
	// slice holds the 2^(i-1) subtree averages of that level's nodes.
	for width := m / 2; width >= 1; width /= 2 {
		for k := 0; k < width; k++ {
			left, right := avg[2*k], avg[2*k+1]
			dst[width+k] = (left - right) / 2
			avg[k] = (left + right) / 2
		}
	}
	dst[0] = avg[0] // base coefficient: overall mean
}

// Inverse reconstructs the original vector from coefficients produced by
// Forward. The length must be a power of two.
func Inverse(coeffs []float64) ([]float64, error) {
	m := len(coeffs)
	if !IsPowerOfTwo(m) {
		return nil, fmt.Errorf("haar: length %d is not a power of two", m)
	}
	v := make([]float64, m)
	InverseInto(coeffs, v)
	return v, nil
}

// InverseInto is Inverse writing into a caller-provided slice; src and dst
// must both have power-of-two length m. dst must not alias src.
func InverseInto(src, dst []float64) {
	m := len(src)
	if m == 1 {
		dst[0] = src[0]
		return
	}
	// Top-down: value[node] starts at the base coefficient and each
	// level adds +c (left child) or −c (right child), per Equation 3.
	// dst is used as the value buffer level by level.
	dst[0] = src[0]
	for width := 1; width < m; width *= 2 {
		// Values for the current width (subtree averages) sit in
		// dst[0:width]; expand in place from the back to avoid clobbering.
		for k := width - 1; k >= 0; k-- {
			parent := dst[k]
			c := src[width+k]
			dst[2*k] = parent + c
			dst[2*k+1] = parent - c
		}
	}
}

// Level returns the decomposition-tree level of coefficient index k in a
// transform of size m; the root is level 1 and the deepest internal nodes
// are level l = log₂(m). Level 0 denotes the base coefficient (k = 0).
func Level(k int) int {
	if k == 0 {
		return 0
	}
	return bits.Len(uint(k))
}

// Weight returns the paper's W_Haar for coefficient index k of an
// m-length transform: m for the base coefficient and 2^(l−i+1) for a
// coefficient at level i, where l = log₂(m) (§IV-B).
func Weight(m, k int) float64 {
	if k == 0 {
		return float64(m)
	}
	l := Log2(m)
	return float64(int(1) << (l - Level(k) + 1))
}

// Weights returns the full weight vector aligned with the coefficient
// layout of Forward.
func Weights(m int) ([]float64, error) {
	if !IsPowerOfTwo(m) {
		return nil, fmt.Errorf("haar: length %d is not a power of two", m)
	}
	w := make([]float64, m)
	for k := range w {
		w[k] = Weight(m, k)
	}
	return w, nil
}

// GeneralizedSensitivity returns the generalized sensitivity of the
// m-length Haar transform with respect to W_Haar: 1 + log₂(m) (Lemma 2).
func GeneralizedSensitivity(m int) float64 {
	return 1 + float64(Log2(m))
}
