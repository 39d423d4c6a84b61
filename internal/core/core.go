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
// (Lemma 1 + Theorem 2); NewPlan therefore sets λ = 2ρ/ε.
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

// Result is a mechanism's output: the noisy matrix M* and the privacy
// accounting a release carries.
type Result struct {
	// Noisy is M*, shaped exactly like the input frequency matrix.
	Noisy *matrix.Matrix
	// Epsilon echoes the privacy budget spent.
	Epsilon float64
	// Rho is the sensitivity the noise is calibrated to.
	Rho float64
	// Lambda is the base Laplace magnitude, 2ρ/ε.
	Lambda float64
	// VarianceBound is the mechanism's analytic worst-case noise variance
	// for any range-count query answered from Noisy.
	VarianceBound float64
}

// Plan is Figure 5 worked out for one (schema, ε, SA) before any data
// is read: which attributes get per-entry noise and which the HN
// transform, and the noise scale that makes the release
// ε-differentially private. NewPlan is the one place SA, ρ and λ are
// decided: PublishMatrix runs a plan, the exact-variance analyzer reads
// one, and the mechanisms' pre-ingest checks build one.
type Plan struct {
	// Epsilon is the privacy budget.
	Epsilon float64
	// SA and Rest are the attribute indices in SA and outside it,
	// ascending.
	SA, Rest []int
	// SASizes holds the domain sizes of SA's attributes, in SA's order;
	// SubMatrices, their product, is the number of Figure-5 sub-matrices.
	SASizes     []int
	SubMatrices int
	// HN is the transform over Rest's attributes and Weights its
	// per-dimension weight vectors (HN.WeightVector). Both are nil when
	// SA covers every attribute: the Basic mechanism.
	HN      *transform.HN
	Weights [][]float64
	// Rho is HN's generalized sensitivity ∏_{A∉SA} P(A), 1 without a
	// transform, and Lambda the base noise magnitude λ = 2ρ/ε.
	Rho, Lambda float64
	// VarianceBound is Corollary 1's worst-case noise variance for any
	// range-count query answered from the release (Dwork et al.'s bound
	// for Basic).
	VarianceBound float64
}

// NewPlan resolves sa against schema and derives ρ, λ and the variance
// bound at epsilon. It refuses an SA name the schema lacks or lists
// twice, an ε that is not positive and finite, and an ε so small that λ
// is not finite.
func NewPlan(schema *dataset.Schema, epsilon float64, sa []string) (*Plan, error) {
	if err := privacy.CheckEpsilon(epsilon); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	inSA := make([]bool, schema.NumAttrs())
	for _, name := range sa {
		i, err := schema.Index(name)
		if err != nil {
			return nil, err
		}
		if inSA[i] {
			return nil, fmt.Errorf("core: attribute %q listed twice in SA", name)
		}
		inSA[i] = true
	}
	p := &Plan{Epsilon: epsilon, SubMatrices: 1, Rho: 1}
	var restSpecs []transform.Spec
	for i, spec := range schema.Specs() {
		if !inSA[i] {
			p.Rest = append(p.Rest, i)
			restSpecs = append(restSpecs, spec)
			continue
		}
		size := schema.Attr(i).Size
		p.SA = append(p.SA, i)
		p.SASizes = append(p.SASizes, size)
		p.SubMatrices *= size
	}
	var err error
	if len(restSpecs) > 0 {
		if p.HN, err = transform.New(restSpecs...); err != nil {
			return nil, err
		}
		p.Rho = p.HN.GeneralizedSensitivity()
		p.Weights = make([][]float64, p.HN.NumDims())
		for i := range p.Weights {
			p.Weights[i] = p.HN.WeightVector(i)
		}
	}
	if p.Lambda, err = privacy.Lambda(epsilon, p.Rho); err != nil {
		return nil, err
	}
	if p.HN == nil {
		p.VarianceBound = privacy.BasicVarianceBound(epsilon, schema.DomainSize())
	} else if p.VarianceBound, err = privacy.PriveletPlusVarianceBound(epsilon, p.SASizes, restSpecs); err != nil {
		return nil, err
	}
	return p, nil
}

// result wraps M* with the plan's accounting.
func (p *Plan) result(noisy *matrix.Matrix) *Result {
	return &Result{Noisy: noisy, Epsilon: p.Epsilon, Rho: p.Rho, Lambda: p.Lambda, VarianceBound: p.VarianceBound}
}

// PublishMatrix runs Privelet+ directly on a frequency matrix: it builds
// the Plan for (schema, opts.Epsilon, opts.SA) and runs it on m. The
// input matrix is not modified.
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
	plan, err := NewPlan(schema, opts.Epsilon, opts.SA)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
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
	if plan.HN == nil {
		noisy := m.Clone()
		if err := privacy.InjectLaplaceUniformCtx(ctx, noisy, plan.Lambda, opts.Seed, opts.workers()); err != nil {
			return nil, err
		}
		return plan.result(noisy), nil
	}
	hn, saIdx, saSizes, subCount := plan.HN, plan.SA, plan.SASizes, plan.SubMatrices

	// Every entry of M belongs to exactly one SA sub-matrix and every
	// sub-matrix is fully rewritten, so workers assemble M* directly into
	// a fresh matrix; the input is only ever read.
	noisy, err := matrix.New(m.Dims()...)
	if err != nil {
		return nil, err
	}

	// Fan the Figure-5 sub-matrices (steps 3–6) across a worker pool:
	// `outer` workers claim sub-matrix indices one at a time
	// (matrix.ForEachRange with one run per sub-matrix), and each wavelet
	// step inside a sub-matrix fans its vectors across the `inner`
	// workers left over (dominant when SA is small or empty).
	par := opts.workers()
	outer := min(par, subCount)

	// Each outer worker gets a share of the inner (per-wavelet-step)
	// budget. Shares distribute the remainder of par/outer across the
	// first workers, so the total goroutine count never exceeds the
	// Parallelism cap and never strands budgeted workers (par=8 over 5
	// sub-matrices: shares 2,2,2,1,1). Pipeline, kernel cache and
	// sub-matrix buffer are per-worker too: ping-pong buffers, kernel
	// instances and their scratch all live for the whole publish, so the
	// steady-state per-sub-matrix allocation count is zero no matter how
	// many sub-matrices a worker drains.
	type worker struct {
		ex     transform.Exec
		sub    *matrix.Matrix
		coords []int
	}
	workers := make([]worker, outer)
	for w := range workers {
		inner := par / outer
		if w < par%outer {
			inner++
		}
		workers[w] = worker{
			ex: transform.Exec{
				Workers: inner,
				Pipe:    matrix.NewPipeline(),
				Cache:   hn.NewKernelCache(inner),
				// Ctx reaches into every ApplyAlong chunk loop, so even a
				// single-sub-matrix publish (SA = ∅, the whole domain in
				// one transform pass) cancels mid-transform, about every
				// 64Ki entries, rather than only at sub-matrix boundaries.
				Ctx: ctx,
			},
			coords: make([]int, len(saIdx)),
		}
	}
	err = matrix.ForEachRange(subCount, outer, subCount, func(w, idx, _ int) error {
		// Cancellation is observed between sub-matrices: a worker
		// finishes the unit it started, then stops claiming new ones.
		if err := ctx.Err(); err != nil {
			return err
		}
		wk := &workers[w]
		// Decode the flat index into SA coordinates (mixed radix, last
		// dimension fastest — the order Figure 5 enumerates).
		rem := idx
		for k := len(saIdx) - 1; k >= 0; k-- {
			wk.coords[k] = rem % saSizes[k]
			rem /= saSizes[k]
		}
		var err error
		wk.sub, err = m.SubInto(saIdx, wk.coords, wk.sub)
		if err != nil {
			return err
		}
		c, err := hn.ForwardExec(wk.sub, wk.ex)
		if err != nil {
			return err
		}
		// Two-level substream discipline: sub-matrix idx owns the derived
		// seed SubstreamSeed(Seed, idx) — keyed by index, not visit order
		// — and the injection pass substreams it again per 64Ki-entry
		// chunk, fanning the noise across this worker's inner budget.
		// Equal seeds therefore give bit-identical releases at any
		// parallelism level.
		if err := privacy.InjectLaplaceCtx(ctx, c, plan.Weights, plan.Lambda,
			rng.SubstreamSeed(opts.Seed, uint64(idx)), wk.ex.Workers); err != nil {
			return err
		}
		rec, err := hn.InverseExec(c, wk.ex)
		if err != nil {
			return err
		}
		// Workers write disjoint regions of noisy: no locking needed.
		return noisy.SetSub(saIdx, wk.coords, rec)
	})
	if err != nil {
		return nil, err
	}
	return plan.result(noisy), nil
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
