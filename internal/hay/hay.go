// Package hay implements the hierarchical mechanism of Hay, Rastogi,
// Miklau and Suciu, "Boosting the accuracy of differentially-private
// queries through consistency" (the paper's §VIII discusses it as the
// closest independent work; it matches Privelet's polylog bound but only
// for one-dimensional data).
//
// The mechanism materializes a complete binary interval tree over a
// one-dimensional frequency vector (padded to a power of two), publishes
// every node count with Laplace noise of magnitude 2h/ε — a tuple change
// touches one node per level, so the tree's sensitivity is the height
// h = log₂(m)+1, and privacy.Lambda calibrates it as λ = 2ρ/ε at ρ = h
// like every mechanism here — and then post-processes the noisy tree
// into the minimum-L2 consistent tree with the standard two-pass closed
// form:
//
//	upward:  z[v] = (f^l − f^(l−1))/(f^l − 1) · y[v]
//	               + (f^(l−1) − 1)/(f^l − 1) · Σ z[children]
//	downward: x[v] = z[v] + (x[parent] − Σ z[siblings incl. v])/f
//
// with fanout f = 2 and l = number of levels below v (leaves have l = 1).
// The leaves of the consistent tree form the released histogram.
//
// This package is an extension beyond the Privelet paper's own
// experiments; the benchmark suite compares it against Privelet on 1-D
// data (BenchmarkExtensionHay1D).
package hay

import (
	"context"
	"fmt"
	"math"

	"repro/internal/haar"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Result is a released one-dimensional histogram with its privacy
// accounting.
type Result struct {
	// Histogram is the consistent released histogram (original, unpadded
	// length).
	Histogram []float64
	// Epsilon echoes the privacy budget.
	Epsilon float64
	// Magnitude is the per-node Laplace magnitude 2h/ε, privacy.Lambda
	// at ρ = Height.
	Magnitude float64
	// Height is the tree height log₂(m)+1 on the padded domain.
	Height int
}

// Publish releases v under ε-differential privacy with the hierarchical
// consistency mechanism. The input is not modified. A cancelled ctx
// aborts before the noisy tree is built; the mechanism itself is O(m)
// and runs to completion once started.
func Publish(ctx context.Context, v []float64, epsilon float64, seed uint64) (*Result, error) {
	if err := privacy.CheckEpsilon(epsilon); err != nil {
		return nil, fmt.Errorf("hay: %w", err)
	}
	if len(v) == 0 {
		return nil, fmt.Errorf("hay: empty input")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	m := haar.NextPowerOfTwo(len(v))
	padded := make([]float64, m)
	copy(padded, v)
	levels := haar.Log2(m) + 1 // tree height: root..leaves

	// tree[1] is the root; node k has children 2k, 2k+1; leaves occupy
	// [m, 2m). tree[k] = exact count of the node's interval.
	tree := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		tree[m+i] = padded[i]
	}
	for k := m - 1; k >= 1; k-- {
		tree[k] = tree[2*k] + tree[2*k+1]
	}

	// A tuple change alters one node per level: sensitivity = levels.
	// (The paper's frequency-matrix convention counts a tuple *change*
	// as two unit edits; we follow Hay et al.'s add/remove convention
	// here and calibrate to the same 2·levels/ε total via Lambda with
	// rho = levels, matching the Privelet calibration convention used
	// elsewhere in this repository.)
	magnitude, err := privacy.Lambda(epsilon, float64(levels))
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	noisy := make([]float64, 2*m)
	for k := 1; k < 2*m; k++ {
		noisy[k] = tree[k] + src.Laplace(magnitude)
	}

	consistent := Consistent(noisy, m)
	hist := make([]float64, len(v))
	copy(hist, consistent[m:m+len(v)])
	return &Result{
		Histogram: hist,
		Epsilon:   epsilon,
		Magnitude: magnitude,
		Height:    levels,
	}, nil
}

// Consistent computes the minimum-L2 tree consistent with the noisy
// binary tree (heap layout, root at 1, m leaves). It returns a new tree
// slice; the input is not modified.
func Consistent(noisy []float64, m int) []float64 {
	// Upward pass: z[v] combines the node's own noisy count with its
	// children's z-estimates using the closed-form weights for fanout 2.
	z := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		z[m+i] = noisy[m+i]
	}
	// l = levels below v, leaves have l = 1. Weight for fanout 2:
	//   z[v] = (2^l − 2^(l−1))/(2^l − 1)·y[v] + (2^(l−1) − 1)/(2^l − 1)·(z[2v]+z[2v+1])
	for k := m - 1; k >= 1; k-- {
		l := levelsBelow(k, m)
		pow := math.Pow(2, float64(l))
		powPrev := pow / 2
		wSelf := (pow - powPrev) / (pow - 1)
		wKids := (powPrev - 1) / (pow - 1)
		z[k] = wSelf*noisy[k] + wKids*(z[2*k]+z[2*k+1])
	}
	// Downward pass: distribute each node's residual equally to its
	// children so parent = sum(children) holds exactly.
	x := make([]float64, 2*m)
	x[1] = z[1]
	for k := 1; k < m; k++ {
		diff := (x[k] - z[2*k] - z[2*k+1]) / 2
		x[2*k] = z[2*k] + diff
		x[2*k+1] = z[2*k+1] + diff
	}
	return x
}

// levelsBelow returns the number of tree levels at or below node k
// (leaves have 1) in a heap-layout tree with m leaves. The depth of heap
// node k is floor(log₂k)+1, i.e. its bit length.
func levelsBelow(k, m int) int {
	total := haar.Log2(m) + 1
	return total - bitsLen(k) + 1
}

func bitsLen(k int) int {
	n := 0
	for k > 0 {
		k >>= 1
		n++
	}
	return n
}

// VarianceBound returns an analytic worst-case noise variance for any
// interval query answered from a released histogram over a padded domain
// of size m. A consistent tree satisfies parent = Σ children exactly, so
// summing histogram entries over an interval equals summing its ≤
// 2·log₂(m) dyadic-decomposition nodes; each node's consistent estimate
// has variance at most that of its raw noisy count, 2·(2h/ε)², giving
//
//	Var ≤ 2·log₂(m) · 2·(2h/ε)²   (h = log₂(m)+1)
//
// Consistency post-processing only lowers per-node variance, so the
// bound is conservative. It matches Privelet's polylog profile, as §VIII
// of the wavelet paper notes for the 1-D case.
func VarianceBound(epsilon float64, m int) float64 {
	if m <= 0 {
		return math.Inf(1)
	}
	padded := haar.NextPowerOfTwo(m)
	levels := float64(haar.Log2(padded) + 1)
	lambda, err := privacy.Lambda(epsilon, levels)
	if err != nil {
		return math.Inf(1)
	}
	nodes := 2 * float64(haar.Log2(padded))
	if nodes < 1 {
		nodes = 1 // m = 1: the single root node
	}
	return nodes * 2 * lambda * lambda
}
