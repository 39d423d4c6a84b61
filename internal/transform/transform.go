// Package transform implements the Haar-Nominal (HN) multi-dimensional
// wavelet transform of §VI-A: the standard decomposition that applies a
// one-dimensional transform (Haar for ordinal dimensions, nominal for
// hierarchy-bearing dimensions) along each dimension of the frequency
// matrix in turn.
//
// Coefficient vectors are laid out base-first in level order, exactly as
// the one-dimensional packages emit them, so "the i-th coefficient of
// every vector along dimension k" is a well-defined coefficient slot with
// a homogeneous per-slot weight. That makes the paper's recursively
// defined weight function W_HN factor into a tensor product:
//
//	W_HN(c) = ∏_i w_i[coord_i(c)]
//
// where w_i is the one-dimensional weight vector of dimension i. (Proof
// sketch: in step i the new weight is W_i(c) times the weight shared by
// the source vector, and the shared weight depends only on the
// already-transformed coordinates — induction gives the product form.)
// Weight therefore never materializes a full weight matrix unless asked.
//
// Ordinal dimensions are padded to the next power of two with dummy zero
// entries (§IV's remedy); privacy and utility formulas use the padded
// sizes. Nominal dimensions grow from |A| to the node count of their
// hierarchy (the transform is over-complete, §V-A).
package transform

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/haar"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/nominal"
)

// Kind distinguishes ordinal from nominal dimensions.
type Kind int

const (
	// KindOrdinal marks a totally ordered dimension (Haar transform).
	KindOrdinal Kind = iota
	// KindNominal marks a hierarchy-bearing dimension (nominal transform).
	KindNominal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOrdinal:
		return "ordinal"
	case KindNominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one dimension of the input matrix.
type Spec struct {
	Kind Kind
	// Size is the domain size |A|. For nominal dimensions it must equal
	// the hierarchy's leaf count (and may be left 0 to default to it).
	Size int
	// Hier is required for nominal dimensions and ignored for ordinal.
	Hier *hierarchy.Hierarchy
}

// Ordinal returns a Spec for an ordinal dimension of the given size.
func Ordinal(size int) Spec { return Spec{Kind: KindOrdinal, Size: size} }

// Nominal returns a Spec for a nominal dimension with hierarchy h.
func Nominal(h *hierarchy.Hierarchy) Spec { return Spec{Kind: KindNominal, Hier: h} }

// dim is the resolved per-dimension machinery.
type dim struct {
	spec    Spec
	size    int // original size |A|
	padded  int // ordinal: next power of two; nominal: size
	coeffs  int // coefficient count after the 1-D transform
	weights []float64
	nom     *nominal.Transform // nil for ordinal
}

// HN is a multi-dimensional Haar-Nominal wavelet transform. It is
// immutable after New and safe for concurrent use.
type HN struct {
	dims []dim
}

// New builds an HN transform for the given dimension specs.
func New(specs ...Spec) (*HN, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("transform: need at least one dimension")
	}
	t := &HN{dims: make([]dim, len(specs))}
	for i, s := range specs {
		d := dim{spec: s}
		switch s.Kind {
		case KindOrdinal:
			if s.Size <= 0 {
				return nil, fmt.Errorf("transform: ordinal dimension %d has non-positive size %d", i, s.Size)
			}
			d.size = s.Size
			d.padded = haar.NextPowerOfTwo(s.Size)
			d.coeffs = d.padded
			w, err := haar.Weights(d.padded)
			if err != nil {
				return nil, fmt.Errorf("transform: dimension %d: %w", i, err)
			}
			d.weights = w
		case KindNominal:
			if s.Hier == nil {
				return nil, fmt.Errorf("transform: nominal dimension %d lacks a hierarchy", i)
			}
			if s.Size != 0 && s.Size != s.Hier.LeafCount() {
				return nil, fmt.Errorf("transform: nominal dimension %d size %d != hierarchy leaf count %d",
					i, s.Size, s.Hier.LeafCount())
			}
			nt, err := nominal.New(s.Hier)
			if err != nil {
				return nil, fmt.Errorf("transform: dimension %d: %w", i, err)
			}
			d.size = s.Hier.LeafCount()
			d.padded = d.size
			d.coeffs = nt.OutputSize()
			d.weights = nt.Weights()
			d.nom = nt
		default:
			return nil, fmt.Errorf("transform: dimension %d has unknown kind %v", i, s.Kind)
		}
		t.dims[i] = d
	}
	return t, nil
}

// NumDims returns the dimensionality d.
func (t *HN) NumDims() int { return len(t.dims) }

// InputDims returns the expected input matrix shape (original domain
// sizes, unpadded).
func (t *HN) InputDims() []int {
	out := make([]int, len(t.dims))
	for i, d := range t.dims {
		out[i] = d.size
	}
	return out
}

// CoeffDims returns the coefficient matrix shape.
func (t *HN) CoeffDims() []int {
	out := make([]int, len(t.dims))
	for i, d := range t.dims {
		out[i] = d.coeffs
	}
	return out
}

// Exec carries the execution resources of a transform pass through the
// parallel publish engine.
type Exec struct {
	// Workers is the goroutine count each ApplyAlong step fans out to;
	// values ≤ 1 run serially on the calling goroutine. Output is
	// bit-identical at any worker count.
	Workers int
	// Pipe, when non-nil, supplies ping-pong buffers the pass's steps
	// alternate between, so a d-step pass allocates no full matrices
	// after warm-up. The returned matrix then aliases pipeline storage:
	// it is invalidated by the next pass using the same pipeline, and the
	// pipeline must not be shared between goroutines.
	Pipe *matrix.Pipeline
	// Cache, when non-nil, reuses kernel instances (and their scratch
	// slices) across successive passes instead of rebuilding them per
	// pass — the last per-sub-matrix allocations of the publish engine.
	// It must come from the same HN's NewKernelCache, sized for at least
	// Workers, and like Pipe must not be shared between goroutines.
	Cache *KernelCache
	// Ctx, when non-nil, is observed inside every ApplyAlong step's
	// chunk loop (about every 64Ki entries), so a pass over a huge
	// single sub-matrix cancels mid-transform instead of only between
	// steps. A cancelled pass returns ctx's error and no matrix.
	Ctx context.Context
}

// apply runs one ApplyAlong step under the exec policy.
func (ex Exec) apply(m *matrix.Matrix, dim, newSize int, factory matrix.KernelFactory) (*matrix.Matrix, error) {
	ctx := ex.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.Pipe != nil {
		return ex.Pipe.ApplyAlongCtx(ctx, m, dim, newSize, ex.Workers, factory)
	}
	return m.ApplyAlongPoolCtx(ctx, dim, newSize, ex.Workers, factory)
}

// KernelCache memoizes kernel instances per (dimension, direction,
// worker) so a worker that processes many sub-matrices through the same
// transform builds each kernel's scratch once, not once per sub-matrix.
// Construct with HN.NewKernelCache. A cache belongs to one HN and one
// goroutine's Exec (its slots are written by the ApplyAlong workers the
// exec spawns, ordered through that goroutine); sharing a cache between
// concurrently executing passes is a data race.
type KernelCache struct {
	owner    *HN
	fwd, inv [][]matrix.VecFunc // [dimension][worker]
	// built counts kernel instances constructed (for tests/stats); it is
	// atomic because concurrent workers of one pass may construct their
	// kernels simultaneously.
	built atomic.Int64
}

// NewKernelCache returns a cache for passes over t with up to `workers`
// ApplyAlong workers (values < 1 are treated as 1; worker indices beyond
// the cap fall back to uncached construction rather than failing).
func (t *HN) NewKernelCache(workers int) *KernelCache {
	if workers < 1 {
		workers = 1
	}
	c := &KernelCache{owner: t, fwd: make([][]matrix.VecFunc, len(t.dims)), inv: make([][]matrix.VecFunc, len(t.dims))}
	for i := range t.dims {
		c.fwd[i] = make([]matrix.VecFunc, workers)
		c.inv[i] = make([]matrix.VecFunc, workers)
	}
	return c
}

// Built reports how many kernel instances the cache has constructed; a
// steady-state pass over a warm cache leaves it unchanged.
func (c *KernelCache) Built() int { return int(c.built.Load()) }

// cached wraps factory so worker w reuses slots[w] across passes.
func (c *KernelCache) cached(slots []matrix.VecFunc, factory matrix.KernelFactory) matrix.KernelFactory {
	return func(w int) matrix.VecFunc {
		if w < 0 || w >= len(slots) {
			return factory(w)
		}
		if slots[w] == nil {
			slots[w] = factory(w)
			c.built.Add(1)
		}
		return slots[w]
	}
}

// kernel resolves dimension i's kernel factory under the exec policy,
// memoized through ex.Cache when one is set.
func (t *HN) kernel(i int, inverse bool, ex Exec) (matrix.KernelFactory, error) {
	var factory matrix.KernelFactory
	if inverse {
		factory = t.inverseKernel(i)
	} else {
		factory = t.forwardKernel(i)
	}
	if ex.Cache == nil {
		return factory, nil
	}
	if ex.Cache.owner != t {
		return nil, fmt.Errorf("transform: Exec.Cache belongs to a different HN")
	}
	slots := ex.Cache.fwd[i]
	if inverse {
		slots = ex.Cache.inv[i]
	}
	return ex.Cache.cached(slots, factory), nil
}

// Forward applies the HN transform to M and returns the coefficient
// matrix C_d. Shorthand for ForwardExec with serial, allocating
// execution.
func (t *HN) Forward(m *matrix.Matrix) (*matrix.Matrix, error) {
	return t.ForwardExec(m, Exec{})
}

// forwardKernel returns the kernel factory of dimension i's forward step.
// Power-of-two padding of ordinal dimensions (§IV's remedy) is fused into
// the kernel: src may be the unpadded |A|-length vector, which the kernel
// zero-extends in per-worker scratch before transforming.
func (t *HN) forwardKernel(i int) matrix.KernelFactory {
	d := t.dims[i]
	switch d.spec.Kind {
	case KindOrdinal:
		// ForwardPaddedIntoScratch zero-extends src to d.padded in its
		// own scratch, so the unpadded and padded cases share one kernel.
		return func(int) matrix.VecFunc {
			scratch := make([]float64, d.padded)
			return func(src, dst []float64) {
				haar.ForwardPaddedIntoScratch(src, dst, scratch)
			}
		}
	default: // KindNominal, validated in New
		nt := d.nom
		return func(int) matrix.VecFunc {
			scratch := make([]float64, d.coeffs)
			return func(src, dst []float64) {
				nt.ForwardIntoScratch(src, dst, scratch)
			}
		}
	}
}

// ForwardExec is Forward under an execution policy: each of the d
// standard-decomposition steps fans its independent vectors across
// ex.Workers goroutines, and with ex.Pipe set the steps ping-pong between
// two reused buffers instead of allocating d matrices.
func (t *HN) ForwardExec(m *matrix.Matrix, ex Exec) (*matrix.Matrix, error) {
	if err := t.checkInput(m); err != nil {
		return nil, err
	}
	cur := m
	for i, d := range t.dims {
		factory, err := t.kernel(i, false, ex)
		if err != nil {
			return nil, err
		}
		cur, err = ex.apply(cur, i, d.coeffs, factory)
		if err != nil {
			return nil, fmt.Errorf("transform: forward dimension %d: %w", i, err)
		}
	}
	return cur, nil
}

// Inverse reconstructs the frequency matrix from a coefficient matrix,
// applying mean subtraction along every nominal dimension before that
// dimension's inverse step (footnote 2 of §VI-B). The input is not
// modified. Shorthand for InverseExec with serial, allocating execution.
func (t *HN) Inverse(c *matrix.Matrix) (*matrix.Matrix, error) {
	return t.InverseExec(c, Exec{})
}

// inverseKernel returns the kernel factory of dimension i's inverse step.
// Every kernel instance owns its scratch, so instances from one factory
// may run concurrently on distinct workers.
func (t *HN) inverseKernel(i int) matrix.KernelFactory {
	d := t.dims[i]
	switch d.spec.Kind {
	case KindOrdinal:
		return func(int) matrix.VecFunc {
			padded := make([]float64, d.padded)
			return func(src, dst []float64) {
				haar.InverseInto(src, padded)
				copy(dst, padded[:d.size])
			}
		}
	default: // KindNominal, validated in New
		nt := d.nom
		return func(int) matrix.VecFunc {
			coeffs := make([]float64, d.coeffs)
			sums := make([]float64, d.coeffs)
			return func(src, dst []float64) {
				copy(coeffs, src)
				// Errors are impossible here: coeffs has the exact size.
				_ = nt.MeanSubtract(coeffs)
				nt.InverseIntoScratch(coeffs, dst, sums)
			}
		}
	}
}

// InverseExec is Inverse under an execution policy; see ForwardExec. A
// publish pass chains ForwardExec → noise injection → InverseExec through
// one pipeline, touching only the two ping-pong buffers throughout.
func (t *HN) InverseExec(c *matrix.Matrix, ex Exec) (*matrix.Matrix, error) {
	got := c.Dims()
	want := t.CoeffDims()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return nil, fmt.Errorf("transform: coefficient shape %v, want %v", got, want)
		}
	}
	cur := c
	for i := len(t.dims) - 1; i >= 0; i-- {
		factory, err := t.kernel(i, true, ex)
		if err != nil {
			return nil, err
		}
		cur, err = ex.apply(cur, i, t.dims[i].size, factory)
		if err != nil {
			return nil, fmt.Errorf("transform: inverse dimension %d: %w", i, err)
		}
	}
	return cur, nil
}

// WeightVector returns the one-dimensional weight vector of dimension i,
// aligned with the coefficient layout along that dimension. The slice is
// owned by the transform; callers must not modify it.
func (t *HN) WeightVector(i int) []float64 { return t.dims[i].weights }

// Weight returns W_HN at the given coefficient coordinates: the product
// of per-dimension weights. A zero anywhere (structurally-zero nominal
// coefficient) makes the whole weight zero, meaning "no noise needed".
func (t *HN) Weight(coords ...int) float64 {
	if len(coords) != len(t.dims) {
		panic(fmt.Sprintf("transform: got %d coordinates for %d dimensions", len(coords), len(t.dims)))
	}
	w := 1.0
	for i, c := range coords {
		w *= t.dims[i].weights[c]
	}
	return w
}

// GeneralizedSensitivity returns Theorem 2's bound ∏P(A_i) with respect
// to W_HN, where P(A) = 1+log₂(padded |A|) for ordinal dimensions and the
// hierarchy height for nominal ones.
func (t *HN) GeneralizedSensitivity() float64 {
	p := 1.0
	for _, d := range t.dims {
		p *= t.dimP(d)
	}
	return p
}

func (t *HN) dimP(d dim) float64 {
	if d.spec.Kind == KindOrdinal {
		return haar.GeneralizedSensitivity(d.padded)
	}
	return d.nom.GeneralizedSensitivity()
}

func (t *HN) checkInput(m *matrix.Matrix) error {
	got := m.Dims()
	want := t.InputDims()
	if len(got) != len(want) {
		return fmt.Errorf("transform: input dimensionality %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("transform: input shape %v, want %v", got, want)
		}
	}
	return nil
}
