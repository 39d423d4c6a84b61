// Parallel, allocation-frugal variants of the ApplyAlong engine.
//
// ApplyAlong enumerates the Len()/Dim(dim) one-dimensional vectors along a
// dimension; the vectors are mutually independent, which makes the
// standard decomposition of the HN transform embarrassingly parallel.
// This file adds:
//
//   - ForEachRange — the engine's one worker pool. The ApplyAlong family
//     and PrefixSumExec below, query batches, noise injection and core's
//     Figure-5 sub-matrix fan-out all run on it, so their splitting,
//     joining and error rule cannot drift apart;
//   - ApplyAlongPoolCtx — a chunked worker-pool ApplyAlong. Each worker
//     owns a kernel instance produced by a factory, so kernels may keep
//     scratch state without synchronization. Workers observe a
//     context.Context about every 64Ki entries, so a pass over a huge
//     domain cancels mid-transform and returns ctx.Err(), never a partial
//     matrix;
//   - Pipeline — a pair of ping-pong buffers that chained ApplyAlongCtx
//     steps alternate between, so a d-dimensional forward+inverse pass
//     allocates two backing slices total instead of 2d full matrices;
//   - PrefixSumExec — the summed-area-table build (the query evaluator's
//     cost) with the per-dimension scans fanned across the same pool,
//     bit-identical at any worker count;
//   - SubInto — sub-matrix extraction into a reusable destination.
//
// Vectors whose dimension is innermost (stride 1) are handed to kernels
// as direct sub-slices of the backing arrays — zero-copy; other strides
// gather/scatter through per-worker scratch.
package matrix

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// VecFunc is the per-vector kernel of the ApplyAlong family: it reads src
// (the vector along the applied dimension) and must fully overwrite dst.
// dst never aliases src but may hold stale data from a reused buffer.
type VecFunc func(src, dst []float64)

// KernelFactory produces the kernel instance of worker `worker`
// (0 ≤ worker < the ApplyAlong call's worker count; serial calls use 0).
// Instances run from a single goroutine each, so they may close over
// private scratch — but the factory itself is called concurrently from
// the worker goroutines and must not touch shared mutable state. The
// worker index lets callers cache instances (and their scratch) across
// successive ApplyAlong calls: within one call each index is used by at
// most one goroutine, and calls are ordered through the spawning
// goroutine, so a per-(dimension, worker) cache needs no locking.
type KernelFactory func(worker int) VecFunc

// SharedKernel adapts a stateless, concurrency-safe kernel to a
// KernelFactory.
func SharedKernel(f VecFunc) KernelFactory { return func(int) VecFunc { return f } }

// ResolveWorkers resolves a caller-facing parallelism knob to an
// effective worker count: values ≤ 0 mean runtime.GOMAXPROCS(0). This
// is the single definition of the "≤ 0 = all cores" default shared by
// the public Params, core.Options and the release store's evaluator
// rebuilds, so every stage of a publish resolves the same knob to the
// same budget.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Strides returns the row-major strides for the given dimension sizes —
// the single definition of the matrix memory layout, shared by the
// dataset frequency fold and the streaming publisher so a layout change
// cannot desynchronize them.
func Strides(dims []int) []int {
	strides := make([]int, len(dims))
	strides[len(dims)-1] = 1
	for i := len(dims) - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * dims[i+1]
	}
	return strides
}

// checkApplyAlong validates the (dim, newSize) pair and returns the
// resulting dimension sizes.
func (m *Matrix) checkApplyAlong(dim, newSize int) ([]int, error) {
	if dim < 0 || dim >= len(m.dims) {
		return nil, fmt.Errorf("matrix: ApplyAlong dimension %d out of range", dim)
	}
	if newSize <= 0 {
		return nil, fmt.Errorf("matrix: ApplyAlong newSize %d must be positive", newSize)
	}
	newDims := append([]int(nil), m.dims...)
	newDims[dim] = newSize
	return newDims, nil
}

// ApplyAlongPoolCtx is ApplyAlong with a worker pool and a context: the
// vectors along dim are split into `workers` contiguous chunks processed
// concurrently, each chunk by its own kernel from factory (workers ≤ 1
// runs serially on the calling goroutine), and the result is
// bit-identical at any worker count. Every worker observes ctx between
// vectors, about every cancelCheckEntries entries, so even a single
// enormous apply (one sub-matrix spanning the whole domain) cancels
// mid-pass rather than only at its boundary — provided the pass has more
// than one vector. A vector is one kernel invocation
// and is never interrupted inside the kernel, so the degenerate 1-D
// apply (the whole domain as a single vector) only observes ctx before
// that one call. On cancellation the call returns ctx's error and NO
// matrix — the partially written destination is discarded, never handed
// to the caller.
func (m *Matrix) ApplyAlongPoolCtx(ctx context.Context, dim, newSize, workers int, factory KernelFactory) (*Matrix, error) {
	newDims, err := m.checkApplyAlong(dim, newSize)
	if err != nil {
		return nil, err
	}
	out, err := New(newDims...)
	if err != nil {
		return nil, err
	}
	if err := m.applyAlongInto(ctx, dim, workers, factory, out); err != nil {
		return nil, err
	}
	return out, nil
}

// cancelCheckEntries is roughly how many matrix entries a worker
// processes between context checks: large enough that the check is free
// next to the kernel work, small enough that cancelling a pass over a
// multi-million-entry domain takes effect in well under a millisecond.
// It matches the noise-injection chunk granule in internal/privacy, so
// "the engine observes ctx about every 64Ki entries" holds across the
// whole publish pipeline.
const cancelCheckEntries = 1 << 16

// cancelCheckVectors converts the entry granule into a vector count for
// vectors of the given length.
func cancelCheckVectors(vecLen int) int {
	n := cancelCheckEntries / vecLen
	if n < 1 {
		return 1
	}
	return n
}

// ForEachRange is the engine's one worker pool. It cuts [0, total) into
// `runs` contiguous runs (clamped to [1, total]), run k being
// [k·total/runs, (k+1)·total/runs), and executes them on
// min(workers, runs) workers: worker w runs run w first, then claims the
// next unclaimed run from a shared counter until none is left. Worker 0
// is the calling goroutine, so workers ≤ 1 runs every run in order
// without spawning any. run receives its worker index and half-open
// range, never an empty one.
//
// The two schedules its callers use:
//
//   - runs = workers: a fixed split, each worker running exactly its own
//     run, so range membership is a pure function of (total, workers) —
//     the per-worker kernel cache of ApplyAlong relies on it, and
//     PrefixSumExec and query batches use it too;
//   - runs = total: one unit at a time, claimed from the counter, which
//     balances uneven units (core's Figure-5 sub-matrices, privacy's
//     noise chunks).
//
// A failure stops new claims but never skips a claimed run, so every run
// below a failing one has run. After the join the error of the lowest
// failing run is returned: deterministic whenever each run's failure is.
func ForEachRange(total, workers, runs int, run func(w, lo, hi int) error) error {
	if total <= 0 {
		return nil
	}
	runs = max(min(runs, total), 1)
	workers = max(min(workers, runs), 1)
	var (
		next   atomic.Int64 // the next unclaimed run
		mu     sync.Mutex   // guards lowest and first
		lowest = runs
		first  error
		wg     sync.WaitGroup
	)
	next.Store(int64(workers))
	work := func(w int) {
		for k := w; k < runs; k = int(next.Add(1)) - 1 {
			if err := run(w, k*total/runs, (k+1)*total/runs); err != nil {
				mu.Lock()
				if k < lowest {
					lowest, first = k, err
				}
				mu.Unlock()
				// Exhaust the counter: a run claimed before this store
				// still runs, and no claim after it succeeds.
				next.Store(int64(runs))
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return first
}

// applyAlongInto runs the chunked apply into a preshaped destination.
// out must have m's shape except along dim. A non-nil error is always
// ctx's error; the destination then holds partial garbage and must be
// dropped by the caller.
func (m *Matrix) applyAlongInto(ctx context.Context, dim, workers int, factory KernelFactory, out *Matrix) error {
	oldSize := m.dims[dim]
	inner := m.strides[dim] // product of dims after dim
	outer := len(m.data) / (oldSize * inner)
	total := outer * inner // number of vectors along dim
	return ForEachRange(total, workers, workers, func(w, lo, hi int) error {
		return m.applyRange(ctx, out, dim, lo, hi, factory(w))
	})
}

// applyRange applies f to vectors [lo, hi) along dim, writing into out.
// Vector v decomposes as (outer, inner) = (v/inner, v%inner); when dim is
// innermost (inner == 1) the vectors are contiguous and are passed to f
// as direct slices of the backing arrays. ctx is observed roughly every
// cancelCheckEntries entries; a countdown (rather than a modulo) keeps
// the per-vector overhead to one decrement.
func (m *Matrix) applyRange(ctx context.Context, out *Matrix, dim, lo, hi int, f VecFunc) error {
	oldSize := m.dims[dim]
	newSize := out.dims[dim]
	checkEvery := cancelCheckVectors(oldSize)
	budget := 0
	srcStride := m.strides[dim]
	dstStride := out.strides[dim]
	inner := srcStride
	if inner == 1 {
		// Zero-copy: vector v occupies m.data[v*oldSize : (v+1)*oldSize].
		for v := lo; v < hi; v++ {
			if budget == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				budget = checkEvery
			}
			budget--
			f(m.data[v*oldSize:(v+1)*oldSize], out.data[v*newSize:(v+1)*newSize])
		}
		return nil
	}
	src := make([]float64, oldSize)
	dst := make([]float64, newSize)
	for v := lo; v < hi; v++ {
		if budget == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			budget = checkEvery
		}
		budget--
		o, in := v/inner, v%inner
		so := o*oldSize*inner + in
		for j := 0; j < oldSize; j++ {
			src[j] = m.data[so+j*srcStride]
		}
		f(src, dst)
		do := o*newSize*inner + in
		for j := 0; j < newSize; j++ {
			out.data[do+j*dstStride] = dst[j]
		}
	}
	return nil
}

// Pipeline is a pair of ping-pong buffers for chained ApplyAlongCtx
// steps: a transform pass that applies d steps in sequence reuses the
// same two backing slices instead of allocating d full matrices.
//
// Discipline: the input of each ApplyAlongCtx call must be either a
// matrix external to the pipeline or the result of the previous call on
// the same pipeline — the call overwrites the buffer the input does NOT
// occupy. Consequently only the most recent result is valid; earlier
// results alias overwritten storage. A Pipeline is not safe for
// concurrent use; give each worker its own.
type Pipeline struct {
	bufs [2][]float64
	next int
}

// NewPipeline returns an empty pipeline; buffers grow on demand and are
// retained for reuse.
func NewPipeline() *Pipeline { return &Pipeline{} }

// take returns buffer i resized to n, growing its capacity as needed.
func (p *Pipeline) take(i, n int) []float64 {
	if cap(p.bufs[i]) < n {
		p.bufs[i] = make([]float64, n)
	}
	p.bufs[i] = p.bufs[i][:n]
	return p.bufs[i]
}

// aliases reports whether the slice shares its backing start with buffer i.
// Pipeline matrices always view a buffer from element 0, so comparing the
// first element's address suffices.
func (p *Pipeline) aliases(data []float64, i int) bool {
	return len(data) > 0 && len(p.bufs[i]) > 0 && &data[0] == &p.bufs[i][0]
}

// ApplyAlongCtx is ApplyAlongPoolCtx writing into the pipeline's next
// buffer. The returned matrix aliases pipeline storage: it is valid only
// until the next call on this pipeline, and callers must copy out (e.g.
// via SetSub or Clone) anything they need to keep. On cancellation it
// returns ctx's error and no matrix (see ApplyAlongPoolCtx for the
// granularity); the pipeline buffer the aborted pass was writing holds
// garbage, which the ping-pong discipline already treats as invalid — the
// next call on the pipeline simply overwrites it.
func (p *Pipeline) ApplyAlongCtx(ctx context.Context, m *Matrix, dim, newSize, workers int, factory KernelFactory) (*Matrix, error) {
	newDims, err := m.checkApplyAlong(dim, newSize)
	if err != nil {
		return nil, err
	}
	total := 1
	for _, d := range newDims {
		total *= d
	}
	target := p.next
	if p.aliases(m.data, target) {
		target = 1 - target // never overwrite the input's own buffer
	}
	out := &Matrix{
		dims:    newDims,
		strides: Strides(newDims),
		data:    p.take(target, total),
	}
	p.next = 1 - target
	if err := m.applyAlongInto(ctx, dim, workers, factory, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PrefixSumExec converts the matrix in place into a d-dimensional
// summed-area table: entry x becomes the sum of all entries with
// coordinates ≤ x component-wise. Within each dimension's pass the
// Len()/Dim(dim) scans along that dimension are mutually independent, so
// they fan out across `workers` goroutines exactly like
// ApplyAlongPoolCtx's vectors (workers ≤ 1 runs serially on the calling
// goroutine); dimensions themselves stay sequential, each pass joining
// its workers before the next starts, because pass i reads what pass i−1
// wrote. Every individual scan accumulates left-to-right in the same
// order at any worker count, so no float64 addition is ever reassociated
// and the resulting table is bit-identical to the serial one (`==` per
// entry, property-tested) — the evaluator-rebuild analogue of the
// publish engine's determinism contract (docs/ARCHITECTURE.md).
//
// A 1-D matrix is a single scan with a loop-carried dependency and runs
// serially regardless of workers: parallelizing it would need a
// tree-structured scan, which reassociates sums and breaks bit-identity.
func (m *Matrix) PrefixSumExec(workers int) {
	for dim := range m.dims {
		size := m.dims[dim]
		inner := m.strides[dim]
		outer := len(m.data) / (size * inner)
		// The scans never fail, so ForEachRange's error is always nil.
		_ = ForEachRange(outer*inner, workers, workers, func(_, lo, hi int) error {
			m.prefixScanRange(dim, lo, hi)
			return nil
		})
	}
}

// prefixScanRange runs scans [lo, hi) of dimension dim's prefix-sum pass.
// Scan v decomposes as (outer, inner) = (v/stride, v%stride), mirroring
// applyRange's vector numbering; distinct scans touch disjoint entries,
// so concurrent ranges need no synchronization.
//
// In a strided dimension the scans sharing an outer index lie side by
// side and advance together, row j−1 added into row j: each entry gets
// the same additions in the same order as scan by scan (bit-identical),
// but a row's adds are independent. Innermost scans run one at a time.
func (m *Matrix) prefixScanRange(dim, lo, hi int) {
	size := m.dims[dim]
	stride := m.strides[dim]
	if stride == 1 {
		for v := lo; v < hi; v++ {
			for j := v*size + 1; j < (v+1)*size; j++ {
				m.data[j] += m.data[j-1]
			}
		}
		return
	}
	for v := lo; v < hi; {
		o, in := v/stride, v%stride
		n := min(hi, (o+1)*stride) - v // scans [v, v+n) share outer index o
		for row := o*size*stride + in + stride; row < (o+1)*size*stride; row += stride {
			prev, cur := m.data[row-stride:row-stride+n], m.data[row:row+n]
			for k := range cur {
				cur[k] += prev[k]
			}
		}
		v += n
	}
}

// SubInto extracts the sub-matrix obtained by fixing the listed
// dimensions at the given coordinates; the result keeps the remaining
// dimensions in order. fixedDims must be strictly increasing; at least
// one dimension must remain free. The result is written into dst, which
// is reused when it already has the right shape and allocated otherwise;
// the (possibly new) destination is returned. Pass nil to always
// allocate.
func (m *Matrix) SubInto(fixedDims, fixedCoords []int, dst *Matrix) (*Matrix, error) {
	freeDims, baseOff, err := m.subLayout(fixedDims, fixedCoords)
	if err != nil {
		return nil, err
	}
	shape := make([]int, len(freeDims))
	for i, d := range freeDims {
		shape[i] = m.dims[d]
	}
	if dst == nil || !sameDims(dst.dims, shape) {
		dst, err = New(shape...)
		if err != nil {
			return nil, err
		}
	}
	m.walkSub(freeDims, baseOff, func(srcOff, dstOff, n, stride int) {
		run := dst.data[dstOff : dstOff+n]
		if stride == 1 {
			copy(run, m.data[srcOff:])
			return
		}
		for k := range run {
			run[k] = m.data[srcOff+k*stride]
		}
	})
	return dst, nil
}
