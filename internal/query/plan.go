// Parse → execute pipeline for batch query serving. The paper's
// experiments answer 40 000-query workloads per release (§VII-A), so the
// serving layer treats the workload as the first-class object the way
// matrix-mechanism systems do: Parse (parse.go) normalizes one textual
// predicate spec into a Query (every predicate is a contiguous leaf
// interval under the hierarchy's imposed order, §V-A), and Batch fans a
// workload — a query slice or a streamed Source — across a worker pool
// over a summed-area Evaluator.
//
// Determinism: every query's answer is a pure function of the evaluator's
// table — Count reads, never writes — so fanning queries across workers
// reorders only the computation, not any floating-point arithmetic.
// Batch.Execute is therefore bit-identical (float64 ==) to a serial loop
// at any worker count, the serving-side analogue of the publish engine's
// determinism contract (docs/ARCHITECTURE.md), and property-tested the
// same way.

package query

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/matrix"
)

// batchCancelCheck is roughly how many queries a batch worker answers
// between context checks: one Count costs at most 2^d table lookups
// (well under a microsecond), so a ~thousand-query granule keeps the
// check free while a cancelled 40k-query batch still stops within a
// millisecond.
const batchCancelCheck = 1024

// DefaultStreamChunk is the answer-chunk size of Batch.ExecuteStream
// when Batch.ChunkSize is unset: 4Ki queries ≈ 32 KiB of answers per
// flush, small enough that two in-flight chunks bound memory at any
// workload size, large enough that per-chunk pool and flush overhead
// stays well under the ~146 ns the answers themselves cost.
const DefaultStreamChunk = 4096

// Source streams queries into a batch execution by filling the slot it
// is handed: it writes the next query into *dst and returns ok=true,
// ok=false on clean end of input, or an error (which aborts the
// stream). ExecuteStream calls it from one goroutine at a time,
// overlapped with the previous chunk's execution, so a parsing Source
// pipelines wire-format decoding into query execution.
//
// Slots are ExecuteStream's own. Each comes with one bound per
// evaluator dimension, backed by its chunk's flat bounds array, for the
// source to fill in place (Parser.ParseInto does). A source may instead
// point *dst at a query it keeps (SliceSource does), but then must not
// also fill slots in place: a slot keeps what its last fill left. A
// filled slot stays valid until ExecuteStream refills it, after the
// chunk holding it has executed and been delivered.
type Source func(dst *Query) (ok bool, err error)

// Sink receives each in-order chunk of answers from ExecuteStream. The
// slice is reused for later chunks; implementations must copy anything
// they keep past the call. A Sink error aborts the stream.
type Sink func(answers []float64) error

// SliceSource adapts an in-memory query slice to a Source (the buffered
// workload case of ExecuteStream): each fill points the slot at the
// next query of the slice.
func SliceSource(queries []Query) Source {
	i := 0
	return func(dst *Query) (bool, error) {
		if i >= len(queries) {
			return false, nil
		}
		*dst = queries[i]
		i++
		return true, nil
	}
}

// Batch executes query workloads against one evaluator with a worker
// pool. Workers follows the codebase-wide knob convention
// (matrix.ResolveWorkers): ≤ 0 — including the zero value — means all
// cores; set Workers to 1 for strictly serial execution.
//
// Answers are bit-identical (float64 ==) to a serial Count loop at any
// worker count: queries split into contiguous index ranges, each answer
// lands in its own slot, and no floating-point operation depends on the
// split. The evaluator is immutable and safe for concurrent use, so a
// batch may run while the release store evicts or reloads the release —
// a held Evaluator stays valid (internal/store's eviction only drops the
// store's own references).
//
// With Cache set (Schema required then), answers flow through a
// per-release AnswerCache keyed by the canonical Query.Spec rendering:
// hits skip the evaluator entirely, misses execute on the pool and are
// inserted. Cached answers are the float64 values the same evaluator
// produced earlier, so caching never changes an answer — the cache is a
// performance knob under the same contract as Workers. It pays only for
// single queries: the hit/miss partition renders and probes every key
// serially, so on a census workload it is slower than the uncached
// pool even when every probe hits. The server sets Cache for /count
// and leaves it nil for streamed workloads.
type Batch struct {
	// Eval answers the individual queries.
	Eval *Evaluator
	// Workers caps the fan-out; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes answers keyed by canonical spec.
	Cache *AnswerCache
	// Schema renders cache keys (Query.Spec); required iff Cache is set.
	Schema *dataset.Schema
	// ChunkSize is ExecuteStream's answer-chunk size; ≤ 0 means
	// DefaultStreamChunk. Chunk boundaries never affect answers.
	ChunkSize int
}

// Execute answers every query, in input order. ctx is observed about
// every batchCancelCheck queries; on cancellation Execute returns ctx's
// error and no answers. A per-query failure (a query built against a
// different schema than the evaluator's matrix) aborts the batch with
// the lowest-index error, deterministically at any worker count.
func (b Batch) Execute(ctx context.Context, queries []Query) ([]float64, error) {
	if b.Eval == nil {
		return nil, fmt.Errorf("query: Batch.Execute without an Evaluator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	answers := make([]float64, len(queries))
	if err := b.run(ctx, queries, answers); err != nil {
		return nil, err
	}
	return answers, nil
}

// run answers queries into the matching answers slots — through the
// cache when configured, with misses fanned across the worker pool. It
// is the one execution core under Execute and ExecuteStream, so the
// buffered, streamed, and cached paths cannot drift.
func (b Batch) run(ctx context.Context, queries []Query, answers []float64) error {
	if b.Cache == nil {
		return b.runPool(ctx, queries, answers)
	}
	if b.Schema == nil {
		return fmt.Errorf("query: Batch.Cache requires Batch.Schema (cache keys are canonical specs)")
	}
	// Partition into hits and misses. Keys render into one reused buffer;
	// lookups go through the byte-keyed probe so a hit allocates nothing,
	// and only misses pay for a persistent key string.
	var (
		keyBuf   []byte
		missQ    []Query
		missIdx  []int
		missKeys []string
	)
	for i := range queries {
		keyBuf = queries[i].appendSpec(keyBuf[:0], b.Schema)
		if v, ok := b.Cache.lookup(keyBuf); ok {
			answers[i] = v
			continue
		}
		missQ = append(missQ, queries[i])
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, string(keyBuf))
	}
	if len(missQ) == 0 {
		return nil
	}
	missA := make([]float64, len(missQ))
	if err := b.runPool(ctx, missQ, missA); err != nil {
		return err
	}
	for j, i := range missIdx {
		answers[i] = missA[j]
		b.Cache.Put(missKeys[j], missA[j])
	}
	return nil
}

// runPool is the uncached pool execution: contiguous per-worker ranges
// over the evaluator (matrix.ForEachRange's fixed split, each worker
// writing disjoint answer slots), the lowest-index error winning.
func (b Batch) runPool(ctx context.Context, queries []Query, answers []float64) error {
	workers := matrix.ResolveWorkers(b.Workers)
	return matrix.ForEachRange(len(queries), workers, workers, func(_, lo, hi int) error {
		return b.executeRange(ctx, queries, answers, lo, hi)
	})
}

// streamChunk is one ping-pong buffer of ExecuteStream's pipeline.
type streamChunk struct {
	queries []Query
	answers []float64
	n       int
}

// newStreamChunk returns a chunk of size slots for queries of d
// dimensions. The slots' lo, hi and constrained are cap-limited windows
// of one flat bounds array and one flat flags array, so the chunk is
// four allocations whatever its size.
func newStreamChunk(size, d int) streamChunk {
	c := streamChunk{queries: make([]Query, size), answers: make([]float64, size)}
	bounds, flags := make([]int, 2*d*size), make([]bool, d*size)
	for j := range c.queries {
		b, f := bounds[2*d*j:], flags[d*j:]
		c.queries[j] = Query{lo: b[:d:d], hi: b[d : 2*d : 2*d], constrained: f[:d:d]}
	}
	return c
}

// ExecuteStream answers a streamed workload in fixed-size in-order
// chunks, delivering each chunk to sink while later chunks are still
// parsing and executing. The pipeline is double-buffered across two
// chunk buffers: while chunk k executes on the worker pool, chunk k+1
// is filled from src (so wire-format parsing overlaps execution), and
// while chunk k's answers are written by the sink, chunk k+1 executes.
// Each chunk's slots and their bounds are allocated once per call, on
// the chunk's first fill, and refilled by src chunk after chunk; see
// Source for the slot contract.
// Peak memory is two chunks — O(ChunkSize) — whatever the workload
// length; a million-query workload streams without ever existing as a
// slice.
//
// Answers are bit-identical (float64 ==) to Execute over the same
// queries at any worker count and any chunk size: chunking reorders
// only computation, never floating-point arithmetic, and the cache (if
// configured) returns previously computed float64 values unchanged.
//
// ExecuteStream returns the number of answers delivered. On error the
// stream stops: every chunk delivered before the failure stays
// delivered (callers surface the cut via a trailer — see
// internal/workload's answer wire format), a src error discards the
// partially filled chunk it interrupted, and the error is returned. A
// sink error aborts without further deliveries.
func (b Batch) ExecuteStream(ctx context.Context, src Source, sink Sink) (int, error) {
	if b.Eval == nil {
		return 0, fmt.Errorf("query: Batch.ExecuteStream without an Evaluator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	size := b.ChunkSize
	if size <= 0 {
		size = DefaultStreamChunk
	}
	d := b.Eval.prefix.NumDims()
	var bufs [2]streamChunk
	srcDone := false
	fill := func(c *streamChunk) error {
		c.n = 0
		if c.queries == nil && !srcDone {
			// The second chunk's allocation overlaps the first one's
			// execution, so the first answer waits on one allocation,
			// and a one-chunk workload never makes the second.
			*c = newStreamChunk(size, d)
		}
		for !srcDone && c.n < size {
			ok, err := src(&c.queries[c.n])
			if err != nil {
				return err
			}
			if !ok {
				srcDone = true
				break
			}
			c.n++
		}
		return nil
	}
	exec := func(c *streamChunk) chan error {
		done := make(chan error, 1)
		go func() { done <- b.run(ctx, c.queries[:c.n], c.answers[:c.n]) }()
		return done
	}

	cur, nxt := &bufs[0], &bufs[1]
	if err := fill(cur); err != nil {
		return 0, err
	}
	if cur.n == 0 {
		return 0, nil
	}
	delivered := 0
	running := exec(cur)
	for cur.n > 0 {
		// Overlap: pull the next chunk from the source while cur executes.
		fillErr := fill(nxt)
		if err := <-running; err != nil {
			return delivered, err
		}
		running = nil
		// Overlap: start the next chunk before writing this one out.
		if fillErr == nil && nxt.n > 0 {
			running = exec(nxt)
		}
		if err := sink(cur.answers[:cur.n]); err != nil {
			if running != nil {
				<-running
			}
			return delivered, err
		}
		delivered += cur.n
		if fillErr != nil {
			return delivered, fillErr
		}
		cur, nxt = nxt, cur
	}
	return delivered, nil
}

// executeRange answers queries [lo, hi) into the matching answer slots,
// observing ctx about every batchCancelCheck queries. The error of query
// i is reported before any error of query j > i, so the serial path and
// each pooled worker fail deterministically.
func (b Batch) executeRange(ctx context.Context, queries []Query, answers []float64, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if (i-lo)%batchCancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a, err := b.Eval.Count(queries[i])
		if err != nil {
			return fmt.Errorf("query: batch query %d: %w", i, err)
		}
		answers[i] = a
	}
	return nil
}
