// Package privacy collects the ε-differential-privacy accounting of the
// paper: the per-attribute P and H functions (§VI-C), λ calibration from a
// target ε, the analytic noise-variance bounds every mechanism is compared
// against (Equations 4, 6 and 7), and the Laplace noise-injection step
// shared by the mechanisms.
//
// Conventions. A Laplace noise of magnitude b has variance 2b²
// (Equation 1). A mechanism built on a function set with (generalized)
// sensitivity ρ and per-function noise magnitude λ/W(f) satisfies
// (2ρ/λ)-differential privacy (Theorem 1, Lemma 1); equivalently, to reach
// a target ε one sets λ = 2ρ/ε.
//
// Noise-injection fan-out. The injection passes are the serial tail of a
// publish once the wavelet transform is parallel, so both fan out over
// fixed NoiseChunk-entry chunks of the flat coefficient array, chunk k
// drawing its Laplace variates from rng.Substream(seed, k). The privacy
// guarantee is indifferent to which PRNG stream a variate comes from —
// Theorem 1 only needs the draws independent with the right magnitudes —
// while the fixed chunk granule keeps the release a pure function of the
// seed: bit-identical (float64 ==) at any worker count, and cancellable
// between chunks. docs/ARCHITECTURE.md states the full contract.
package privacy

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/haar"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/transform"
)

// POrdinal returns P(A) = 1 + log₂|A| for an ordinal attribute whose
// padded domain size is size (§VI-C). size must be a power of two.
func POrdinal(size int) float64 {
	return 1 + math.Log2(float64(haar.NextPowerOfTwo(size)))
}

// PNominal returns P(A) = h, the height of the attribute's hierarchy.
func PNominal(h *hierarchy.Hierarchy) float64 { return float64(h.Height()) }

// HOrdinal returns H(A) = (2 + log₂|A|)/2 for an ordinal attribute,
// computed on the padded domain size.
func HOrdinal(size int) float64 {
	return (2 + math.Log2(float64(haar.NextPowerOfTwo(size)))) / 2
}

// HNominal returns H(A) = 4 for a nominal attribute.
func HNominal(*hierarchy.Hierarchy) float64 { return 4 }

// PSpec returns P(A) for a transform dimension spec.
func PSpec(s transform.Spec) (float64, error) {
	switch s.Kind {
	case transform.KindOrdinal:
		if s.Size <= 0 {
			return 0, fmt.Errorf("privacy: ordinal spec with size %d", s.Size)
		}
		return POrdinal(s.Size), nil
	case transform.KindNominal:
		if s.Hier == nil {
			return 0, fmt.Errorf("privacy: nominal spec without hierarchy")
		}
		return PNominal(s.Hier), nil
	default:
		return 0, fmt.Errorf("privacy: unknown spec kind %v", s.Kind)
	}
}

// HSpec returns H(A) for a transform dimension spec.
func HSpec(s transform.Spec) (float64, error) {
	switch s.Kind {
	case transform.KindOrdinal:
		if s.Size <= 0 {
			return 0, fmt.Errorf("privacy: ordinal spec with size %d", s.Size)
		}
		return HOrdinal(s.Size), nil
	case transform.KindNominal:
		if s.Hier == nil {
			return 0, fmt.Errorf("privacy: nominal spec without hierarchy")
		}
		return HNominal(s.Hier), nil
	default:
		return 0, fmt.Errorf("privacy: unknown spec kind %v", s.Kind)
	}
}

// CheckEpsilon is the one test of a privacy budget: it returns an error
// unless 0 < ε < +Inf. An infinite ε would set λ = 2ρ/ε to 0 and
// release exact counts, and a NaN one would pass a plain ε <= 0 test.
// The error has no package prefix; callers add theirs.
func CheckEpsilon(epsilon float64) error {
	if epsilon > 0 && !math.IsInf(epsilon, 1) {
		return nil
	}
	return fmt.Errorf("epsilon must be positive and finite, got %v", epsilon)
}

// Lambda returns the noise parameter λ that makes a mechanism with
// generalized sensitivity rho satisfy epsilon-differential privacy:
// λ = 2ρ/ε (Lemma 1 rearranged). It is the one place λ is computed.
// An ε that passes CheckEpsilon can still be too small for λ: at a
// subnormal ε, 2ρ/ε overflows to +Inf, and Laplace(+Inf) noise would
// release NaN and infinite entries, so a λ that is not finite is an
// error too.
func Lambda(epsilon, rho float64) (float64, error) {
	if err := CheckEpsilon(epsilon); err != nil {
		return 0, fmt.Errorf("privacy: %w", err)
	}
	if rho <= 0 {
		return 0, fmt.Errorf("privacy: sensitivity must be positive, got %v", rho)
	}
	lambda := 2 * rho / epsilon
	if math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return 0, fmt.Errorf("privacy: epsilon %v is too small: λ = 2ρ/ε is not finite at ρ = %v", epsilon, rho)
	}
	return lambda, nil
}

// BasicVarianceBound returns the worst-case noise variance of Dwork et
// al.'s method at privacy level ε for a query covering `covered` matrix
// entries: covered · 2·(2/ε)² (§II-B: each entry carries variance 8/ε²,
// by Equation 1 at magnitude 2/ε). This linear-in-coverage growth is the
// baseline the wavelet mechanisms beat — the nominal transform of §V
// holds subtree-query variance to O(h²) in the hierarchy height and the
// multi-dimensional composition of §VI to the polylogarithmic Corollary 1
// bound, both independent of how many entries the query covers.
func BasicVarianceBound(epsilon float64, covered int) float64 {
	return float64(covered) * 8 / (epsilon * epsilon)
}

// HaarVarianceBound returns Equation 4: the noise variance bound of
// Privelet with the one-dimensional HWT at privacy level ε on a domain of
// (padded) size m: (2+log₂m)·(2+2log₂m)²/ε².
func HaarVarianceBound(epsilon float64, m int) float64 {
	l := math.Log2(float64(haar.NextPowerOfTwo(m)))
	return (2 + l) * (2 + 2*l) * (2 + 2*l) / (epsilon * epsilon)
}

// NominalVarianceBound returns Equation 6: the bound of Privelet with the
// nominal wavelet transform at privacy level ε for hierarchy height h:
// 4·2·(2h)²/ε².
func NominalVarianceBound(epsilon float64, h int) float64 {
	return 8 * float64(2*h) * float64(2*h) / (epsilon * epsilon)
}

// PriveletPlusVarianceBound returns Equation 7: the bound of Privelet+ at
// privacy level ε, where inSA lists the domain sizes of the attributes in
// SA (treated with Dwork-style noise) and rest lists the transform specs
// of the remaining attributes:
//
//	8/ε² · ∏_{A∈SA}|A| · ∏_{A∉SA} P(A)²·H(A)
func PriveletPlusVarianceBound(epsilon float64, inSA []int, rest []transform.Spec) (float64, error) {
	if err := CheckEpsilon(epsilon); err != nil {
		return 0, fmt.Errorf("privacy: %w", err)
	}
	bound := 8 / (epsilon * epsilon)
	for _, size := range inSA {
		if size <= 0 {
			return 0, fmt.Errorf("privacy: SA domain size %d", size)
		}
		bound *= float64(size)
	}
	for _, s := range rest {
		p, err := PSpec(s)
		if err != nil {
			return 0, err
		}
		h, err := HSpec(s)
		if err != nil {
			return 0, err
		}
		bound *= p * p * h
	}
	return bound, nil
}

// NoiseChunk is the fixed granule of the noise-injection fan-out: both
// injection passes cut the flat coefficient array into NoiseChunk-entry
// chunks, and chunk k draws every one of its Laplace variates from
// rng.Substream(seed, k). Because the chunk size is a constant — never a
// function of the worker count — and a chunk's stream depends only on
// (seed, k), the injected noise is a pure function of (seed, matrix
// shape, weights): bit-identical (float64 ==) at parallelism 1, 4, or
// GOMAXPROCS, property-tested like the core engine's sub-matrix fan-out.
// 64Ki entries is large enough that the per-chunk substream setup and
// context check are free next to ~65k Laplace draws, and small enough
// that cancelling a pass over a multi-million-entry domain takes effect
// in well under a millisecond.
const NoiseChunk = 1 << 16

// forEachChunk fans the NoiseChunk-sized chunks of [0, n) across
// `workers` goroutines (≤ 1 runs serially on the calling goroutine),
// calling fn(k, lo, hi) for chunk k covering entries [lo, hi). Workers
// pull chunk indices from a shared counter and observe ctx before each
// chunk; fn must therefore be safe to call concurrently on disjoint
// chunks and in any order. Returns ctx's error iff some chunk was
// skipped because of cancellation — a completed pass never reports the
// cancel that arrived after its last chunk.
func forEachChunk(ctx context.Context, n, workers int, fn func(k, lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	chunks := (n + NoiseChunk - 1) / NoiseChunk
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for k := 0; k < chunks; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := k * NoiseChunk
			hi := min(lo+NoiseChunk, n)
			fn(k, lo, hi)
		}
		return nil
	}
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Claim before consulting ctx: a worker that finds the
				// counter exhausted exits cleanly, so a cancel that lands
				// after the last chunk completed never condemns a fully
				// noised (perfectly valid) matrix. Only a claimed chunk
				// abandoned to the cancel marks the pass failed.
				k := int(next.Add(1)) - 1
				if k >= chunks {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				lo := k * NoiseChunk
				fn(k, lo, min(lo+NoiseChunk, n))
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// InjectLaplace adds independent Laplace noise to every entry of the
// coefficient matrix c — step 5 of the paper's Figure 5, the move that
// actually buys ε-differential privacy (Theorem 1 with the generalized
// sensitivity of §VI-B): entry with weight w receives magnitude λ/w, and
// entries with weight 0 (structurally-zero nominal coefficients) receive
// no noise. Weights are supplied as per-dimension vectors whose product
// is W_HN (see transform.WeightVector); weightVecs[i] must have length
// c.Dim(i). The matrix is modified in place. Noise is drawn per
// NoiseChunk-entry chunk from rng.Substream(seed, chunk); serial
// shorthand for InjectLaplaceCtx.
func InjectLaplace(c *matrix.Matrix, weightVecs [][]float64, lambda float64, seed uint64) error {
	return InjectLaplaceCtx(context.Background(), c, weightVecs, lambda, seed, 1)
}

// InjectLaplaceCtx is InjectLaplace with a worker pool and a context:
// the flat coefficient array fans out over fixed NoiseChunk-entry
// chunks, chunk k drawing from rng.Substream(seed, k) — the same
// position-independent substream discipline that makes core's
// sub-matrix fan-out deterministic — so the noised matrix is
// bit-identical at any worker count (workers ≤ 1 runs serially on the
// calling goroutine). ctx is observed between chunks; on cancellation
// the pass stops early with ctx's error and the matrix is partially
// noised — it must be discarded, never released. Entries whose weight is
// zero consume no draw from their chunk's stream.
func InjectLaplaceCtx(ctx context.Context, c *matrix.Matrix, weightVecs [][]float64, lambda float64, seed uint64, workers int) error {
	if lambda < 0 {
		return fmt.Errorf("privacy: negative lambda %v", lambda)
	}
	d := c.NumDims()
	if len(weightVecs) != d {
		return fmt.Errorf("privacy: %d weight vectors for %d dimensions", len(weightVecs), d)
	}
	for i := 0; i < d; i++ {
		if len(weightVecs[i]) != c.Dim(i) {
			return fmt.Errorf("privacy: weight vector %d has length %d, want %d",
				i, len(weightVecs[i]), c.Dim(i))
		}
	}
	data := c.Data()
	inner := weightVecs[d-1]
	return forEachChunk(ctx, len(data), workers, func(k, lo, hi int) {
		src := rng.Substream(seed, uint64(k))
		// The chunk is walked a row of the innermost dimension at a
		// time. The other coordinates advance by an odometer, once per
		// row, from one division chain per chunk (c.Coords at lo), and
		// so does the row's weight, the running prefix product
		// prefix[i+1] = prefix[i]·weightVecs[i][coords[i]] rebuilt from
		// the lowest dimension the increment touched. Entry j of a row
		// then weighs prefix[d-1]·inner[j], which multiplies in the
		// same left-to-right order as a per-entry loop, so every weight
		// is bit-identical to the per-entry pass's (pinned by a
		// reference test).
		coords := make([]int, d)
		c.Coords(lo, coords)
		prefix := make([]float64, d)
		prefix[0] = 1
		for i := 0; i < d-1; i++ {
			prefix[i+1] = prefix[i] * weightVecs[i][coords[i]]
		}
		// mag holds the magnitudes λ/w of the run of nonzero-weight
		// entries that ends at off, at most one block of them, and may
		// span rows. The run is noised before any later entry draws, so
		// the chunk's stream is drawn in entry order; a zero-weight
		// entry ends a run, draws nothing and keeps its value.
		var mag [rng.LaplaceBlock]float64
		run := 0
		for off := lo; off < hi; {
			rowWeight := prefix[d-1]
			for j := coords[d-1]; j < len(inner) && off < hi; j, off = j+1, off+1 {
				w := rowWeight * inner[j]
				if w == 0 {
					if run > 0 {
						src.AddLaplace(data[off-run:off], mag[:run])
						run = 0
					}
					continue
				}
				mag[run] = lambda / w
				if run++; run == len(mag) {
					src.AddLaplace(data[off+1-run:off+1], mag[:])
					run = 0
				}
			}
			coords[d-1] = 0
			for i := d - 2; i >= 0; i-- {
				if coords[i]++; coords[i] < len(weightVecs[i]) {
					for j := i; j < d-1; j++ {
						prefix[j+1] = prefix[j] * weightVecs[j][coords[j]]
					}
					break
				}
				coords[i] = 0
			}
		}
		if run > 0 {
			src.AddLaplace(data[hi-run:hi], mag[:run])
		}
	})
}

// InjectLaplaceUniformCtx adds Laplace noise of a single magnitude to
// every entry — Dwork et al.'s Basic mechanism step (§II-B), where every
// cell carries Laplace(2/ε) and hence variance 8/ε² (Equation 1). It is
// chunked exactly like InjectLaplaceCtx: fixed NoiseChunk-entry chunks,
// chunk k drawing from rng.Substream(seed, k), bit-identical output at
// any worker count, ctx observed between chunks (a cancelled pass leaves
// the matrix partially noised — discard it, never release it).
func InjectLaplaceUniformCtx(ctx context.Context, m *matrix.Matrix, magnitude float64, seed uint64, workers int) error {
	if magnitude < 0 {
		return fmt.Errorf("privacy: negative magnitude %v", magnitude)
	}
	data := m.Data()
	var mag [rng.LaplaceBlock]float64
	for i := range mag {
		mag[i] = magnitude
	}
	return forEachChunk(ctx, len(data), workers, func(k, lo, hi int) {
		src := rng.Substream(seed, uint64(k))
		for i := lo; i < hi; i += len(mag) {
			n := min(hi-i, len(mag))
			src.AddLaplace(data[i:i+n], mag[:n])
		}
	})
}
