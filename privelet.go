package privelet

import (
	"context"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/query"
)

// Type aliases expose the substrate types through the public package so
// that importers never touch internal paths.
type (
	// Schema describes a table's attributes.
	Schema = dataset.Schema
	// Table is a multiset of tuples over a Schema.
	Table = dataset.Table
	// Attribute is one column description.
	Attribute = dataset.Attribute
	// Hierarchy is a nominal attribute's generalization tree.
	Hierarchy = hierarchy.Hierarchy
	// HierarchyNode is one node of a Hierarchy.
	HierarchyNode = hierarchy.Node
	// Matrix is a dense d-dimensional frequency matrix.
	Matrix = matrix.Matrix
	// Query is a normalized range-count query.
	Query = query.Query
	// QueryBuilder assembles queries against a schema.
	QueryBuilder = query.Builder
	// QuerySource streams queries into CountStream, one at a time, by
	// filling the slot CountStream hands it. A slot comes with bounds a
	// source may fill in place, and stays valid until CountStream
	// refills it; see query.Source for the contract.
	QuerySource = query.Source
	// AnswerSink receives CountStream's in-order answer chunks.
	AnswerSink = query.Sink
)

// NewSchema validates and builds a schema. See dataset.NewSchema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return dataset.NewSchema(attrs...) }

// OrdinalAttr declares an ordinal attribute with domain [0, size).
func OrdinalAttr(name string, size int) Attribute { return dataset.OrdinalAttr(name, size) }

// NominalAttr declares a nominal attribute over hierarchy h.
func NominalAttr(name string, h *Hierarchy) Attribute { return dataset.NominalAttr(name, h) }

// NewTable returns an empty table over schema.
func NewTable(schema *Schema) *Table { return dataset.NewTable(schema) }

// FlatHierarchy builds a two-level hierarchy with n leaves.
func FlatHierarchy(n int) (*Hierarchy, error) { return hierarchy.Flat(n) }

// ThreeLevelHierarchy builds a root → groups → leaves hierarchy.
func ThreeLevelHierarchy(groups, leavesPerGroup int) (*Hierarchy, error) {
	return hierarchy.ThreeLevel(groups, leavesPerGroup)
}

// BuildHierarchy validates a hand-constructed hierarchy tree.
func BuildHierarchy(root *HierarchyNode) (*Hierarchy, error) { return hierarchy.Build(root) }

// Release is a published noisy frequency matrix plus everything needed to
// answer range-count queries against it.
type Release struct {
	schema *Schema
	noisy  *Matrix
	eval   *query.Evaluator
	// meta is the release's accounting as the codec header carries it.
	meta codec.Meta
}

// RecommendSA returns the attributes Corollary 1 suggests excluding from
// the wavelet transform: those with |A| ≤ P(A)²·H(A).
func RecommendSA(schema *Schema) ([]string, error) { return core.RecommendSA(schema) }

// NewQuery starts a range-count query against the release's schema.
func (r *Release) NewQuery() *QueryBuilder { return query.NewBuilder(r.schema) }

// Count answers a range-count query from the released matrix in O(2^d).
func (r *Release) Count(q Query) (float64, error) { return r.eval.Count(q) }

// CountBatch answers a whole query workload in one call, fanning the
// queries across a worker pool over the release's summed-area evaluator
// (workers ≤ 0 means all cores). Answers come back in input order and
// are bit-identical (float64 ==) to calling Count in a serial loop at
// any worker count — batch execution is a performance knob, never part
// of the answer. ctx cancels a long workload between queries.
func (r *Release) CountBatch(ctx context.Context, queries []Query, workers int) ([]float64, error) {
	return query.Batch{Eval: r.eval, Workers: workers}.Execute(ctx, queries)
}

// CountStream answers a streamed workload in fixed-size in-order answer
// chunks, delivering each chunk to sink while later chunks still
// execute on the worker pool — peak memory is O(chunk), not
// O(workload), so a million-query workload streams end-to-end. It
// returns the number of answers delivered; on error, chunks delivered
// before the failure stay delivered. Answers are bit-identical
// (float64 ==) to CountBatch over the same queries at any worker count
// (chunking reorders only computation, never arithmetic). See
// query.Batch.ExecuteStream for the source/sink contract.
func (r *Release) CountStream(ctx context.Context, src QuerySource, sink AnswerSink, workers int) (int, error) {
	return query.Batch{Eval: r.eval, Workers: workers}.ExecuteStream(ctx, src, sink)
}

// Matrix returns the released noisy frequency matrix. Callers may read it
// freely; mutating it desynchronizes Count's prefix table.
func (r *Release) Matrix() *Matrix { return r.noisy }

// Schema returns the schema the release was published under.
func (r *Release) Schema() *Schema { return r.schema }

// Epsilon returns the privacy budget spent.
func (r *Release) Epsilon() float64 { return r.meta.Epsilon }

// Sensitivity returns the generalized sensitivity ρ of the transform the
// release used (1 for Basic).
func (r *Release) Sensitivity() float64 { return r.meta.Rho }

// Lambda returns the base Laplace parameter λ = 2ρ/ε.
func (r *Release) Lambda() float64 { return r.meta.Lambda }

// VarianceBound returns the analytic worst-case noise variance for any
// range-count query answered from this release.
func (r *Release) VarianceBound() float64 { return r.meta.Bound }

// Mechanism names the publishing mechanism, as registered (one of
// Mechanisms(), e.g. "privelet+", "privelet", "basic", "hay"). The name
// travels with the release through Save/Load, the daemon's store, and
// the /export endpoint.
func (r *Release) Mechanism() string { return r.meta.Mechanism }

// String summarizes the release.
func (r *Release) String() string {
	return fmt.Sprintf("privelet.Release{mechanism=%s ε=%g ρ=%g λ=%g varBound=%.4g m=%d}",
		r.meta.Mechanism, r.meta.Epsilon, r.meta.Rho, r.meta.Lambda, r.meta.Bound, r.noisy.Len())
}
