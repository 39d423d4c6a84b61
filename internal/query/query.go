// Package query implements the paper's range-count queries (§II-A):
//
//	SELECT COUNT(*) FROM T
//	WHERE A1 ∈ S1 AND A2 ∈ S2 AND ... AND Ad ∈ Sd
//
// where S_i is an interval for an ordinal attribute, and — for a nominal
// attribute — either one leaf of the hierarchy or all leaves under one
// internal node. Because the hierarchy's imposed total order makes every
// such S_i a contiguous leaf interval (§V-A), a query normalizes to one
// inclusive interval [Lo, Hi] per attribute (unconstrained attributes get
// the full domain).
//
// Evaluation comes in two speeds: Eval scans the covered entries of a
// frequency matrix directly, and an Evaluator answers from a precomputed
// summed-area table in O(2^d) per query — the only way to push the
// paper's 40 000-query workloads through multi-million-entry matrices.
//
// Serving the paper's workloads (§VII runs 40 000 queries per
// experiment) treats the workload, not the single query, as the
// first-class object: Parse (or a Parser, for a stream of specs) turns
// one textual predicate spec into a Query, and Batch fans a workload of
// them across a worker pool over an Evaluator with answers
// bit-identical (float64 ==) to a serial loop. See parse.go and plan.go.
package query

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/matrix"
)

// ErrInvalid tags every query-construction and parse failure: inverted
// ranges, unknown attribute names, wrong-kind predicates, out-of-domain
// bounds, malformed predicate syntax. API layers test with errors.Is to
// map "the query is bad" (a client error, HTTP 400) apart from "the
// engine failed" (a server error, HTTP 500) without string matching.
var ErrInvalid = errors.New("invalid query")

// invalidf builds an error wrapping ErrInvalid.
func invalidf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalid)...)
}

// Query is a normalized range-count query: one inclusive interval per
// attribute of the schema it was built against.
type Query struct {
	lo, hi []int
	// constrained[i] records whether attribute i had an explicit
	// predicate. Spec renders only the constrained attributes;
	// evaluation treats full-range intervals identically.
	constrained []bool
	// domain caches the schema's total entry count so Coverage needs no
	// schema reference.
	domain float64
}

// Lo returns the inclusive lower bounds per attribute.
func (q Query) Lo() []int { return append([]int(nil), q.lo...) }

// Hi returns the inclusive upper bounds per attribute.
func (q Query) Hi() []int { return append([]int(nil), q.hi...) }

// Coverage returns the fraction of frequency-matrix entries the query
// covers (§VII-A's query coverage).
func (q Query) Coverage() float64 {
	covered := 1.0
	for i := range q.lo {
		covered *= float64(q.hi[i] - q.lo[i] + 1)
	}
	return covered / q.domain
}

// Spec renders the query in the textual wire format Parse reads (see
// Parse for the grammar): comma-separated predicates for the constrained
// attributes, `Name=lo..hi` for ordinal intervals and `Name=#lo..hi`
// (leaf positions in the hierarchy's imposed order, §V-A) for nominal
// ones; a query with no constrained attribute renders as "*". The round
// trip Parse(schema, q.Spec(schema)) reproduces q's intervals exactly.
// schema must be the schema the query was built against.
//
// Because attributes render in schema order with normalized intervals,
// the rendering is canonical: two queries produce the same Spec exactly
// when they constrain the same intervals. That makes Spec a collision-
// free cache key — see AnswerCache.
func (q Query) Spec(schema *dataset.Schema) string {
	return string(q.appendSpec(nil, schema))
}

// appendSpec appends the Spec rendering to dst and returns it — the
// allocation-free form the answer cache keys with on its hot path
// (strconv.AppendInt instead of fmt, one reusable buffer per batch).
func (q Query) appendSpec(dst []byte, schema *dataset.Schema) []byte {
	start := len(dst)
	for i, c := range q.constrained {
		if !c {
			continue
		}
		if len(dst) > start {
			dst = append(dst, ',')
		}
		a := schema.Attr(i)
		dst = append(dst, a.Name...)
		dst = append(dst, '=')
		if a.Kind == dataset.Nominal {
			dst = append(dst, '#')
		}
		dst = strconv.AppendInt(dst, int64(q.lo[i]), 10)
		dst = append(dst, '.', '.')
		dst = strconv.AppendInt(dst, int64(q.hi[i]), 10)
	}
	if len(dst) == start {
		dst = append(dst, '*')
	}
	return dst
}

// Builder assembles a Query against a schema.
type Builder struct {
	schema *dataset.Schema
	q      Query
	err    error
}

// NewBuilder starts a query against schema; unconstrained attributes
// default to their full domain.
func NewBuilder(schema *dataset.Schema) *Builder {
	d := schema.NumAttrs()
	b := &Builder{
		schema: schema,
		q: Query{
			lo:          make([]int, d),
			hi:          make([]int, d),
			constrained: make([]bool, d),
		},
	}
	for i := 0; i < d; i++ {
		b.q.hi[i] = schema.Attr(i).Size - 1
	}
	b.q.domain = float64(schema.DomainSize())
	return b
}

// Range constrains an ordinal attribute to the inclusive interval
// [lo, hi]. Errors are deferred to Build.
func (b *Builder) Range(attr string, lo, hi int) *Builder {
	if b.err != nil {
		return b
	}
	i, err := b.schema.Index(attr)
	if err != nil {
		b.err = invalidf("query: %v", err)
		return b
	}
	a := b.schema.Attr(i)
	if a.Kind != dataset.Ordinal {
		b.err = invalidf("query: Range on non-ordinal attribute %q (use Node or Leaf)", attr)
		return b
	}
	if lo < 0 || hi >= a.Size || lo > hi {
		b.err = invalidf("query: Range [%d,%d] invalid for attribute %q of size %d", lo, hi, attr, a.Size)
		return b
	}
	b.q.lo[i], b.q.hi[i] = lo, hi
	b.q.constrained[i] = true
	return b
}

// Node constrains a nominal attribute to all leaves under the hierarchy
// node with the given label (OLAP roll-up; §II-A).
func (b *Builder) Node(attr, label string) *Builder {
	if b.err != nil {
		return b
	}
	i, err := b.schema.Index(attr)
	if err != nil {
		b.err = invalidf("query: %v", err)
		return b
	}
	a := b.schema.Attr(i)
	if a.Kind != dataset.Nominal {
		b.err = invalidf("query: Node on non-nominal attribute %q (use Range)", attr)
		return b
	}
	n := a.Hier.Find(label)
	if n == nil {
		b.err = invalidf("query: attribute %q has no hierarchy node %q", attr, label)
		return b
	}
	b.q.lo[i], b.q.hi[i] = a.Hier.LeafInterval(n)
	b.q.constrained[i] = true
	return b
}

// Leaf constrains a nominal attribute to the single leaf at the given
// position in the imposed order.
func (b *Builder) Leaf(attr string, leaf int) *Builder {
	if b.err != nil {
		return b
	}
	i, err := b.schema.Index(attr)
	if err != nil {
		b.err = invalidf("query: %v", err)
		return b
	}
	a := b.schema.Attr(i)
	if a.Kind != dataset.Nominal {
		b.err = invalidf("query: Leaf on non-nominal attribute %q (use Range)", attr)
		return b
	}
	if leaf < 0 || leaf >= a.Size {
		b.err = invalidf("query: leaf %d out of [0,%d) for attribute %q", leaf, a.Size, attr)
		return b
	}
	b.q.lo[i], b.q.hi[i] = leaf, leaf
	b.q.constrained[i] = true
	return b
}

// Interval constrains attribute i directly to [lo, hi] in domain
// coordinates, regardless of kind. It is the low-level hook the workload
// generator uses after it has already chosen hierarchy-consistent ranges.
func (b *Builder) Interval(i, lo, hi int) *Builder {
	if b.err != nil {
		return b
	}
	if i < 0 || i >= b.schema.NumAttrs() {
		b.err = invalidf("query: attribute index %d out of range", i)
		return b
	}
	a := b.schema.Attr(i)
	if lo < 0 || hi >= a.Size || lo > hi {
		b.err = invalidf("query: interval [%d,%d] invalid for attribute %q of size %d", lo, hi, a.Name, a.Size)
		return b
	}
	b.q.lo[i], b.q.hi[i] = lo, hi
	b.q.constrained[i] = true
	return b
}

// Build finalizes the query.
func (b *Builder) Build() (Query, error) {
	if b.err != nil {
		return Query{}, b.err
	}
	return b.q, nil
}

// Eval answers the query by scanning the covered entries of m (the
// reference evaluation; O(covered entries)).
func (q Query) Eval(m *matrix.Matrix) (float64, error) {
	return m.NaiveRangeSum(q.lo, q.hi)
}

// Evaluator answers queries in O(2^d) from a summed-area table built once
// over a frequency matrix. It is immutable after New and safe for
// concurrent use.
type Evaluator struct {
	prefix *matrix.Matrix
	total  float64
}

// NewEvaluator builds the summed-area table (one O(m) pass) serially;
// NewEvaluatorWorkers is the pooled variant the publish and store-reload
// hot paths use.
func NewEvaluator(m *matrix.Matrix) *Evaluator { return NewEvaluatorWorkers(m, 1) }

// NewEvaluatorWorkers builds the summed-area table with the prefix-sum
// pass fanned across `workers` goroutines (matrix.PrefixSumExec). It
// takes the caller-facing parallelism knob directly: ≤ 0 means all
// cores (the shared matrix.ResolveWorkers default), 1 runs serially.
// The table — and hence every Count — is bit-identical at any worker
// count, so callers may pick workers purely by how much hardware the
// build should use: the evaluator build is the dominant cost of
// reloading a spilled release.
func NewEvaluatorWorkers(m *matrix.Matrix, workers int) *Evaluator {
	p := m.Clone()
	total := m.Total()
	p.PrefixSumExec(matrix.ResolveWorkers(workers))
	return &Evaluator{prefix: p, total: total}
}

// NewEvaluatorFromTable builds an evaluator directly over an already
// computed summed-area table — zero prefix-sum work. prefix is adopted,
// not copied, and must be the exact table NewEvaluator would have built
// (Prefix exports it; the durable format v2 persists it with a
// checksum), and total the matching Total. This is the O(1)-reload hook:
// a spilled release whose table survived on disk reconstructs its
// evaluator without touching the raw matrix, so the table may be backed
// by a read-only memory mapping (matrix.Wrap) — the evaluator never
// mutates it.
func NewEvaluatorFromTable(prefix *matrix.Matrix, total float64) *Evaluator {
	return &Evaluator{prefix: prefix, total: total}
}

// Prefix exports the evaluator's summed-area table — the table-
// persistence hook the durable format v2 encodes. The returned matrix
// is the evaluator's own backing and MUST NOT be mutated.
func (e *Evaluator) Prefix() *matrix.Matrix { return e.prefix }

// Count answers the range-count query.
func (e *Evaluator) Count(q Query) (float64, error) {
	return e.prefix.RangeSum(q.lo, q.hi)
}

// Total returns the sum of all matrix entries (n for an exact frequency
// matrix).
func (e *Evaluator) Total() float64 { return e.total }
