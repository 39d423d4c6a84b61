// Package core implements the paper's primary contribution: the Privelet
// and Privelet+ publishing mechanisms (§III, §VI-B, Figure 5).
//
// Privelet+ takes a table T, a privacy budget ε, and a subset SA of the
// attributes. It maps T to its frequency matrix M, splits M into
// sub-matrices along the SA dimensions, applies the HN wavelet transform
// to each sub-matrix, injects per-coefficient Laplace noise with magnitude
// λ/W_HN(c), inverts the transform (with mean subtraction along nominal
// dimensions), and reassembles the noisy frequency matrix M*.
//
// Special cases fall out of the same code path:
//
//   - SA = ∅ is plain Privelet (one sub-matrix: all of M);
//   - SA = all attributes is exactly Dwork et al.'s Basic mechanism (every
//     sub-matrix is a single cell, the "transform" is the identity with
//     weight 1, and λ = 2/ε).
//
// Privacy accounting: replacing one tuple changes two entries of M by one
// each (sensitivity 2 in the paper's Definition 2 sense). With the HN
// transform's generalized sensitivity ρ = ∏_{A∉SA} P(A) per unit entry
// change, noise magnitude λ/W_HN(c) yields (2ρ/λ)-differential privacy
// (Lemma 1 + Theorem 2); PublishMatrix therefore sets λ = 2ρ/ε.
//
// Execution model. The Figure-5 sub-matrices are mutually independent, so
// PublishMatrix fans them across a worker pool of Options.Parallelism
// goroutines; within a sub-matrix, each wavelet step fans its independent
// 1-D vectors across the workers left over, and the noise-injection pass
// fans its fixed 64Ki-entry chunks across the same inner budget — every
// stage of the pipeline is parallel. Each worker owns a ping-pong buffer
// pair (matrix.Pipeline) and a reusable sub-matrix buffer, so the
// steady-state pass allocates no full matrices. Determinism is preserved
// at every parallelism level by a two-level substream discipline keyed to
// indices, never visit order: sub-matrix k owns the derived seed
// rng.SubstreamSeed(Options.Seed, k), and noise chunk c within it draws
// from rng.Substream of that derived seed and c (the contract is written
// out in docs/ARCHITECTURE.md). Cancellation reaches the same depth: ctx
// is observed between sub-matrices, between noise chunks, and between
// the 1-D vectors inside every wavelet step (about every 64Ki entries),
// so even a single-sub-matrix (SA = ∅) publish over a multi-dimensional
// domain aborts mid-transform. The one residual coarse unit is a single
// 1-D vector — a kernel invocation is never interrupted — so a publish
// of a one-dimensional domain observes ctx only between transform steps
// and noise chunks.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/transform"
)

// Options configures a PublishMatrix call.
type Options struct {
	// Epsilon is the ε-differential-privacy budget; must be positive
	// and finite.
	Epsilon float64
	// SA lists attribute names excluded from the wavelet transform
	// (Privelet+'s small-domain attributes). Empty means plain Privelet;
	// all attributes means the Basic mechanism.
	SA []string
	// Seed drives the Laplace noise stream; equal seeds give
	// bit-identical releases at any Parallelism (for experiments —
	// production releases should draw seeds from a secure source).
	Seed uint64
	// Parallelism caps the worker goroutines the publish engine uses;
	// values ≤ 0 default to runtime.GOMAXPROCS(0). The released matrix
	// does not depend on it.
	Parallelism int
}

// workers resolves the effective worker count (≤ 0 = all cores; the
// shared matrix.ResolveWorkers default).
func (o Options) workers() int { return matrix.ResolveWorkers(o.Parallelism) }

// Result is a published noisy frequency matrix together with its privacy
// accounting.
type Result struct {
	// Noisy is M*, shaped exactly like the input frequency matrix.
	Noisy *matrix.Matrix
	// Lambda is the base noise parameter λ = 2ρ/ε.
	Lambda float64
	// Rho is the generalized sensitivity of the transform used
	// (∏_{A∉SA} P(A); 1 when SA covers every attribute).
	Rho float64
	// Epsilon echoes the requested budget.
	Epsilon float64
	// VarianceBound is Corollary 1's worst-case noise variance for any
	// range-count query answered from Noisy.
	VarianceBound float64
	// SubMatrices is the number of sub-matrices processed (∏_{A∈SA}|A|).
	SubMatrices int
}

// PublishMatrix runs Privelet+ directly on a frequency matrix. The input
// matrix is not modified.
//
// Cancelling ctx aborts the publish: workers observe the cancellation at
// sub-matrix boundaries, between 64Ki-entry noise chunks, and between
// the vectors inside every wavelet step (so a huge multi-dimensional
// SA = ∅ domain aborts mid-transform, not just at stage boundaries; a
// one-dimensional domain is a single vector per step and cancels between
// steps), finish their current granule, and PublishMatrix returns ctx's
// error with no goroutines left behind and no partial matrix. A serving
// layer can therefore tie a publish to the client's request context and
// reclaim the workers the moment the client disconnects.
func PublishMatrix(ctx context.Context, m *matrix.Matrix, schema *dataset.Schema, opts Options) (*Result, error) {
	if err := privacy.CheckEpsilon(opts.Epsilon); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	saIdx, restIdx, err := partition(schema, opts.SA)
	if err != nil {
		return nil, err
	}
	got, want := m.Dims(), schema.Dims()
	if len(got) != len(want) {
		return nil, fmt.Errorf("core: matrix dimensionality %d, schema has %d attributes", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("core: matrix shape %v does not match schema %v", got, want)
		}
	}
	// SA covers everything: Basic mechanism (Figure 5 degenerates to
	// per-entry noise with sensitivity 2). The noise pass itself fans out
	// over fixed chunks keyed to substreams of the seed, so this path is
	// parallel too — and still bit-identical at any worker count.
	if len(restIdx) == 0 {
		lambda, err := privacy.Lambda(opts.Epsilon, 1)
		if err != nil {
			return nil, err
		}
		noisy := m.Clone()
		if err := privacy.InjectLaplaceUniformCtx(ctx, noisy, lambda, opts.Seed, opts.workers()); err != nil {
			return nil, err
		}
		return &Result{
			Noisy:         noisy,
			Lambda:        lambda,
			Rho:           1,
			Epsilon:       opts.Epsilon,
			VarianceBound: privacy.BasicVarianceBound(opts.Epsilon, schema.DomainSize()),
			SubMatrices:   m.Len(),
		}, nil
	}

	// Build the HN transform over the non-SA dimensions.
	allSpecs := schema.Specs()
	restSpecs := make([]transform.Spec, len(restIdx))
	for i, ri := range restIdx {
		restSpecs[i] = allSpecs[ri]
	}
	hn, err := transform.New(restSpecs...)
	if err != nil {
		return nil, err
	}
	rho := hn.GeneralizedSensitivity()
	lambda, err := privacy.Lambda(opts.Epsilon, rho)
	if err != nil {
		return nil, err
	}
	weightVecs := make([][]float64, hn.NumDims())
	for i := range weightVecs {
		weightVecs[i] = hn.WeightVector(i)
	}

	saSizes := make([]int, len(saIdx))
	subCount := 1
	for i, si := range saIdx {
		saSizes[i] = schema.Attr(si).Size
		subCount *= saSizes[i]
	}

	// Every entry of M belongs to exactly one SA sub-matrix and every
	// sub-matrix is fully rewritten, so workers assemble M* directly into
	// a fresh matrix; the input is only ever read.
	noisy, err := matrix.New(m.Dims()...)
	if err != nil {
		return nil, err
	}

	// Fan the Figure-5 sub-matrices (steps 3–6) across a worker pool:
	// `outer` workers pull sub-matrix indices from a shared counter, and
	// each wavelet step inside a sub-matrix fans its vectors across the
	// `inner` workers left over (dominant when SA is small or empty).
	par := opts.workers()
	outer := par
	if outer > subCount {
		outer = subCount
	}

	var next atomic.Int64
	// process runs one outer worker with the given share of the inner
	// (per-wavelet-step) budget. Shares distribute the remainder of
	// par/outer across the first workers, so the total goroutine count
	// never exceeds the Parallelism cap and never strands budgeted
	// workers (par=8 over 5 sub-matrices: shares 2,2,2,1,1).
	process := func(innerWorkers int) error {
		// Pipeline and kernel cache are per-worker: ping-pong buffers,
		// kernel instances and their scratch all live for the worker's
		// whole run, so the steady-state per-sub-matrix allocation count
		// is zero no matter how many sub-matrices the worker drains.
		ex := transform.Exec{
			Workers: innerWorkers,
			Pipe:    matrix.NewPipeline(),
			Cache:   hn.NewKernelCache(innerWorkers),
			// Ctx reaches into every ApplyAlong chunk loop, so even a
			// single-sub-matrix publish (SA = ∅, the whole domain in one
			// transform pass) cancels mid-transform, about every 64Ki
			// entries, rather than only at sub-matrix boundaries.
			Ctx: ctx,
		}
		var sub *matrix.Matrix
		coords := make([]int, len(saIdx))
		for {
			// Cancellation is observed between sub-matrices: a worker
			// finishes the unit it started, then stops pulling new ones.
			if err := ctx.Err(); err != nil {
				return err
			}
			idx := int(next.Add(1)) - 1
			if idx >= subCount {
				return nil
			}
			// Decode the flat index into SA coordinates (mixed radix,
			// last dimension fastest — the order Figure 5 enumerates).
			rem := idx
			for k := len(saIdx) - 1; k >= 0; k-- {
				coords[k] = rem % saSizes[k]
				rem /= saSizes[k]
			}
			var err error
			sub, err = m.SubInto(saIdx, coords, sub)
			if err != nil {
				return err
			}
			c, err := hn.ForwardExec(sub, ex)
			if err != nil {
				return err
			}
			// Two-level substream discipline: sub-matrix idx owns the
			// derived seed SubstreamSeed(Seed, idx) — keyed by index, not
			// visit order — and the injection pass substreams it again
			// per 64Ki-entry chunk, fanning the noise across this
			// worker's inner budget. Equal seeds therefore give
			// bit-identical releases at any parallelism level.
			if err := privacy.InjectLaplaceCtx(ctx, c, weightVecs, lambda,
				rng.SubstreamSeed(opts.Seed, uint64(idx)), innerWorkers); err != nil {
				return err
			}
			rec, err := hn.InverseExec(c, ex)
			if err != nil {
				return err
			}
			// Workers write disjoint regions of noisy: no locking needed.
			if err := noisy.SetSub(saIdx, coords, rec); err != nil {
				return err
			}
		}
	}
	if outer <= 1 {
		if err := process(par); err != nil {
			return nil, err
		}
	} else {
		errs := make(chan error, outer)
		var wg sync.WaitGroup
		for w := 0; w < outer; w++ {
			inner := par / outer
			if w < par%outer {
				inner++
			}
			wg.Add(1)
			go func(inner int) {
				defer wg.Done()
				if err := process(inner); err != nil {
					errs <- err
				}
			}(inner)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	bound, err := privacy.PriveletPlusVarianceBound(opts.Epsilon, saSizes, restSpecs)
	if err != nil {
		return nil, err
	}
	return &Result{
		Noisy:         noisy,
		Lambda:        lambda,
		Rho:           rho,
		Epsilon:       opts.Epsilon,
		VarianceBound: bound,
		SubMatrices:   subCount,
	}, nil
}

// partition resolves the SA names into sorted attribute indices and
// returns (SA indices, remaining indices).
func partition(schema *dataset.Schema, sa []string) (saIdx, restIdx []int, err error) {
	seen := make(map[int]bool, len(sa))
	for _, name := range sa {
		i, err := schema.Index(name)
		if err != nil {
			return nil, nil, err
		}
		if seen[i] {
			return nil, nil, fmt.Errorf("core: attribute %q listed twice in SA", name)
		}
		seen[i] = true
		saIdx = append(saIdx, i)
	}
	sort.Ints(saIdx)
	for i := 0; i < schema.NumAttrs(); i++ {
		if !seen[i] {
			restIdx = append(restIdx, i)
		}
	}
	return saIdx, restIdx, nil
}

// RecommendSA returns the attribute names Corollary 1 suggests placing in
// SA: those with |A| ≤ P(A)²·H(A), for which Dwork-style per-entry noise
// beats the wavelet bound (§VI-D; the paper picks SA = {Age, Gender} for
// the census data this way).
func RecommendSA(schema *dataset.Schema) ([]string, error) {
	var out []string
	for i := 0; i < schema.NumAttrs(); i++ {
		a := schema.Attr(i)
		spec := schema.Specs()[i]
		p, err := privacy.PSpec(spec)
		if err != nil {
			return nil, err
		}
		h, err := privacy.HSpec(spec)
		if err != nil {
			return nil, err
		}
		if float64(a.Size) <= p*p*h {
			out = append(out, a.Name)
		}
	}
	return out, nil
}
