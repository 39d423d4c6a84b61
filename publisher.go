package privelet

import (
	"context"
	"fmt"

	"repro/internal/matrix"
)

// Publisher accumulates rows directly into a frequency matrix and
// publishes it through any registered mechanism. It is the streaming
// ingest path: where a Table buffers all n tuples (O(n) memory) before
// FrequencyMatrix folds them, a Publisher folds each row the moment it
// arrives, so memory stays O(domain) — a billion-row CSV publishes
// through the same fixed-size matrix as a thousand-row one. Add performs
// no allocation, making the per-row cost a bounds check and one
// increment.
//
// A Publisher is not safe for concurrent use; give each ingest goroutine
// its own and sum the matrices, or serialize Adds externally.
type Publisher struct {
	freq    *Frequency
	sizes   []int // attribute domain sizes, |A_i|
	strides []int
	rows    int
}

// NewPublisher returns a Publisher over schema with all counts zero.
func NewPublisher(schema *Schema) (*Publisher, error) {
	if schema == nil {
		return nil, fmt.Errorf("privelet: nil schema")
	}
	sizes := schema.Dims()
	m, err := matrix.New(sizes...)
	if err != nil {
		return nil, err
	}
	return &Publisher{freq: &Frequency{Schema: schema, M: m}, sizes: sizes, strides: matrix.Strides(sizes)}, nil
}

// offset validates a row and returns its frequency-matrix offset; the
// shared address computation behind Add and the Continual window's
// evictions.
func (p *Publisher) offset(vals []int) (int, error) {
	if len(vals) != len(p.strides) {
		return 0, fmt.Errorf("privelet: row has %d values, want %d", len(vals), len(p.strides))
	}
	off := 0
	for i, v := range vals {
		if v < 0 || v >= p.sizes[i] {
			a := p.freq.Schema.Attr(i)
			return 0, fmt.Errorf("privelet: value %d out of domain [0,%d) for attribute %q", v, a.Size, a.Name)
		}
		off += v * p.strides[i]
	}
	return off, nil
}

// Add folds one row into the frequency matrix; vals[i] must lie in
// [0, |A_i|). It allocates nothing.
func (p *Publisher) Add(vals ...int) error {
	off, err := p.offset(vals)
	if err != nil {
		return err
	}
	p.freq.M.Data()[off]++
	p.rows++
	return nil
}

// AddBatch folds a batch of rows; on error the earlier rows of the batch
// remain folded (the reported row index is batch-relative).
func (p *Publisher) AddBatch(rows [][]int) error {
	for i, row := range rows {
		if err := p.Add(row...); err != nil {
			return fmt.Errorf("privelet: batch row %d: %w", i, err)
		}
	}
	return nil
}

// AddTable folds every tuple of a buffered table, for callers migrating
// from the Table-based API.
func (p *Publisher) AddTable(t *Table) error {
	row := make([]int, t.Schema().NumAttrs())
	for i := 0; i < t.Len(); i++ {
		t.Row(i, row)
		if err := p.Add(row...); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns how many rows have been folded in (the table size n).
func (p *Publisher) Rows() int { return p.rows }

// Frequency returns the accumulated frequency matrix. The Publisher
// retains it: rows added afterwards keep mutating the same matrix, so
// take the Frequency when ingest is done (or Clone the matrix).
func (p *Publisher) Frequency() *Frequency { return p.freq }

// Publish releases the accumulated counts through the named mechanism
// (see Mechanisms for the registry). The privacy budget is spent per
// call: publishing the same Publisher twice spends 2ε in total under
// sequential composition. A Continual holds repeated publishes to a
// Ledger's budget.
//
// The whole pipeline behind this call — wavelet transform, Laplace noise
// injection, and the release's prefix-sum evaluator build — runs on the
// parallel engine under params.Parallelism. The mechanism stages observe
// ctx at chunk granularity (roughly every 64Ki entries) and the post
// stages (sanitize, evaluator build) at their boundaries, so a cancelled
// publish returns ctx's error, releases nothing, and leaves no
// goroutines behind. Equal seeds give bit-identical releases at any
// parallelism; docs/ARCHITECTURE.md states the exact contract.
func (p *Publisher) Publish(ctx context.Context, mechanism string, params Params) (*Release, error) {
	return PublishWith(ctx, mechanism, p.freq, params)
}
