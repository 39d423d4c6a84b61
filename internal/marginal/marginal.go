// Package marginal publishes marginals — projections of the frequency
// matrix onto attribute subsets — under ε-differential privacy.
//
// The paper's §VIII contrasts Privelet with Barak et al.'s Fourier-domain
// marginal release; this module closes the loop from the Privelet side:
// each requested marginal is itself a (lower-dimensional) frequency
// matrix, so Privelet+ applies directly. Releasing k marginals of the
// same table composes sequentially, so a total budget ε is split evenly
// across the requested marginals (ε_i = ε/k).
//
// Like Barak et al., callers often want the released marginals to be
// non-negative and integral; postprocess.Sanitize is applied on request.
// Unlike Barak et al., no LP is solved — each marginal is O(n + m_i) —
// at the cost of not enforcing mutual consistency between overlapping
// marginals: two released marginals can disagree on their common total
// by a noise-scale gap.
package marginal

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/postprocess"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Project sums the frequency matrix over every attribute not listed,
// producing the marginal's frequency matrix and its schema. Attribute
// order in `names` is preserved in the output.
func Project(m *matrix.Matrix, schema *dataset.Schema, names []string) (*matrix.Matrix, *dataset.Schema, error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("marginal: empty attribute list")
	}
	sub, idx, err := schema.SubSchema(names)
	if err != nil {
		return nil, nil, err
	}
	got := m.Dims()
	want := schema.Dims()
	if len(got) != len(want) {
		return nil, nil, fmt.Errorf("marginal: matrix dimensionality %d, schema has %d attributes", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, nil, fmt.Errorf("marginal: matrix shape %v does not match schema %v", got, want)
		}
	}

	out, err := matrix.New(sub.Dims()...)
	if err != nil {
		return nil, nil, err
	}
	// keep[i] is the output axis of input dimension i, or -1 if summed out.
	keep := make([]int, schema.NumAttrs())
	for i := range keep {
		keep[i] = -1
	}
	for outAxis, inAxis := range idx {
		keep[inAxis] = outAxis
	}
	data := m.Data()
	coords := make([]int, schema.NumAttrs())
	outCoords := make([]int, sub.NumAttrs())
	for off, v := range data {
		if v == 0 {
			continue
		}
		m.Coords(off, coords)
		for i, k := range keep {
			if k >= 0 {
				outCoords[k] = coords[i]
			}
		}
		out.Add(v, outCoords...)
	}
	return out, sub, nil
}

// Release is one published marginal.
type Release struct {
	// Attrs lists the marginal's attributes in output order.
	Attrs []string
	// Schema is the marginal's (projected) schema.
	Schema *dataset.Schema
	// Noisy is the released noisy marginal.
	Noisy *matrix.Matrix
	// Epsilon is the share of the budget this marginal consumed.
	Epsilon float64
}

// Options configures PublishSet.
type Options struct {
	// Epsilon is the TOTAL privacy budget, split evenly across the set.
	Epsilon float64
	// Seed drives the noise: marginal i of the set draws from
	// rng.SubstreamSeed(Seed, i), the rule core uses per sub-matrix and
	// Continual per epoch, so marginals of calls at different seeds draw
	// unrelated streams.
	Seed uint64
	// AutoSA applies core.RecommendSA per marginal (Corollary 1's rule);
	// otherwise every marginal is published with SA = ∅.
	AutoSA bool
	// Sanitize rounds each released marginal to non-negative integers.
	Sanitize bool
	// Parallelism caps each marginal's publish workers (core.Options
	// semantics: ≤ 0 means GOMAXPROCS). Marginals of one set are
	// published sequentially — their budgets compose, their hardware
	// should not — and each release is independent of the worker count.
	Parallelism int
}

// PublishSet releases one marginal per attribute list. Sequential
// composition makes the whole release (opts.Epsilon)-differentially
// private. Cancelling ctx aborts between (and inside) marginals.
func PublishSet(ctx context.Context, t *dataset.Table, sets [][]string, opts Options) ([]*Release, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("marginal: no marginals requested")
	}
	if err := privacy.CheckEpsilon(opts.Epsilon); err != nil {
		return nil, fmt.Errorf("marginal: %w", err)
	}
	m, err := t.FrequencyMatrix()
	if err != nil {
		return nil, err
	}
	per := opts.Epsilon / float64(len(sets))
	out := make([]*Release, 0, len(sets))
	for si, names := range sets {
		proj, sub, err := Project(m, t.Schema(), names)
		if err != nil {
			return nil, fmt.Errorf("marginal %d: %w", si, err)
		}
		var sa []string
		if opts.AutoSA {
			sa, err = core.RecommendSA(sub)
			if err != nil {
				return nil, fmt.Errorf("marginal %d: %w", si, err)
			}
		}
		res, err := core.PublishMatrix(ctx, proj, sub, core.Options{
			Epsilon: per, SA: sa, Seed: rng.SubstreamSeed(opts.Seed, uint64(si)),
			Parallelism: opts.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("marginal %d: %w", si, err)
		}
		noisy := res.Noisy
		if opts.Sanitize {
			noisy = postprocess.Sanitize(noisy)
		}
		out = append(out, &Release{
			Attrs:   append([]string(nil), names...),
			Schema:  sub,
			Noisy:   noisy,
			Epsilon: per,
		})
	}
	return out, nil
}
