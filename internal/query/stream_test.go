package query_test

// ExecuteStream's contract: streamed answers are float64 == to the
// buffered path at any (worker count × chunk size × caching mode),
// delivered-before-failure chunks stay delivered, and peak memory is
// O(chunk) however long the workload — the property that makes
// million-query serving possible at all.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/rng"
)

// streamFixture wraps batchFixture with the schema the queries were
// generated against (the cache needs it for key rendering).
func streamFixture(t *testing.T, n int) (query.Batch, []query.Query) {
	t.Helper()
	ev, queries := batchFixture(t, n)
	return query.Batch{Eval: ev, Schema: planSchema(t)}, queries
}

// TestExecuteStreamMatchesExecute is the streaming determinism
// property: at every chunk size × worker count × caching mode, the
// streamed answers are float64 == to the buffered Execute, in order,
// and the delivered count is exact.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	base, queries := streamFixture(t, 3000)
	want, err := query.Batch{Eval: base.Eval, Workers: 1}.Execute(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 100, 0 /* = DefaultStreamChunk */} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, cached := range []bool{false, true} {
				b := base
				b.Workers, b.ChunkSize = workers, chunk
				if cached {
					// A warm-ish cache: pre-answer every third query so the
					// run mixes hits and misses within each chunk.
					b.Cache = query.NewAnswerCache(1<<16, nil)
					for i := 0; i < len(queries); i += 3 {
						b.Cache.Put(queries[i].Spec(b.Schema), want[i])
					}
				}
				var got []float64
				n, err := b.ExecuteStream(context.Background(), query.SliceSource(queries), func(a []float64) error {
					got = append(got, a...) // sink must copy: the slice is reused
					return nil
				})
				if err != nil {
					t.Fatalf("chunk=%d workers=%d cached=%v: %v", chunk, workers, cached, err)
				}
				if n != len(want) || len(got) != len(want) {
					t.Fatalf("chunk=%d workers=%d cached=%v: delivered %d, appended %d, want %d",
						chunk, workers, cached, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("chunk=%d workers=%d cached=%v: answer %d = %v, buffered %v",
							chunk, workers, cached, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExecuteStreamSlotReuse: ExecuteStream refills its chunk slots in
// place, so a spec must leave no trace of what its slot held before.
// The workload runs in four phases of two chunks each, one refill of
// every slot per phase: specs constrain both attributes, then only Age,
// then only Occ, then neither, so each later spec leaves unconstrained
// an attribute its slot's earlier spec constrained. Answers must be
// float64 == to Execute over the same specs parsed into queries of
// their own.
func TestExecuteStreamSlotReuse(t *testing.T) {
	s := planSchema(t)
	ev, _ := batchFixture(t, 0)
	r := rng.New(5)
	interval := func(size int) (int, int) {
		x, y := r.Intn(size), r.Intn(size)
		return min(x, y), max(x, y)
	}
	for _, chunk := range []int{1, 7, query.DefaultStreamChunk} {
		var specs []string
		for phase := 0; phase < 4; phase++ {
			for j := 0; j < 2*chunk; j++ {
				lo, hi := interval(10)
				age := fmt.Sprintf("Age=%d..%d", lo, hi)
				lo, hi = interval(6)
				occ := fmt.Sprintf("Occ=#%d..%d", lo, hi)
				specs = append(specs, [...]string{age + "," + occ, age, occ, "*"}[phase])
			}
		}
		queries := make([]query.Query, len(specs))
		for i, spec := range specs {
			q, err := query.Parse(s, spec)
			if err != nil {
				t.Fatal(err)
			}
			queries[i] = q
		}
		want, err := query.Batch{Eval: ev, Workers: 1}.Execute(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			p := query.NewParser(s)
			i := 0
			src := func(dst *query.Query) (bool, error) {
				if i == len(specs) {
					return false, nil
				}
				i++
				if err := p.ParseInto(dst, []byte(specs[i-1])); err != nil {
					return false, err
				}
				return true, nil
			}
			var got []float64
			b := query.Batch{Eval: ev, Workers: workers, ChunkSize: chunk}
			n, err := b.ExecuteStream(context.Background(), src, func(a []float64) error {
				got = append(got, a...)
				return nil
			})
			if err != nil || n != len(want) || len(got) != len(want) {
				t.Fatalf("chunk=%d workers=%d: delivered %d, appended %d, err %v; want %d",
					chunk, workers, n, len(got), err, len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("chunk=%d workers=%d: answer %d (%q) = %v, Execute %v",
						chunk, workers, k, specs[k], got[k], want[k])
				}
			}
		}
	}
}

func TestExecuteStreamEmpty(t *testing.T) {
	b, _ := streamFixture(t, 0)
	n, err := b.ExecuteStream(context.Background(), query.SliceSource(nil), func([]float64) error {
		t.Fatal("sink called for an empty workload")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty stream: delivered=%d err=%v", n, err)
	}
}

// TestExecuteStreamSourceError pins the partial-delivery contract: a
// source failure keeps every complete chunk already answered on the
// wire and discards only the chunk the failure interrupted.
func TestExecuteStreamSourceError(t *testing.T) {
	b, queries := streamFixture(t, 25)
	b.ChunkSize = 10
	boom := errors.New("boom")
	i := 0
	src := func(dst *query.Query) (bool, error) {
		if i == len(queries) {
			return false, boom
		}
		*dst = queries[i]
		i++
		return true, nil
	}
	var got int
	n, err := b.ExecuteStream(context.Background(), src, func(a []float64) error {
		got += len(a)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Chunks 1 and 2 (10 queries each) complete before the fill of chunk
	// 3 fails at query 26; the 5 queries of the partial chunk 3 are
	// discarded.
	if n != 20 || got != 20 {
		t.Fatalf("delivered=%d sank=%d, want 20 (two complete chunks)", n, got)
	}

	// A failure during the very first fill delivers nothing — the HTTP
	// layer depends on this to keep first-chunk errors as plain statuses.
	i = len(queries)
	n, err = b.ExecuteStream(context.Background(), src, func([]float64) error {
		t.Fatal("sink called after first-fill failure")
		return nil
	})
	if !errors.Is(err, boom) || n != 0 {
		t.Fatalf("first-fill failure: delivered=%d err=%v, want 0, boom", n, err)
	}
}

func TestExecuteStreamSinkError(t *testing.T) {
	b, queries := streamFixture(t, 35)
	b.ChunkSize = 10
	boom := errors.New("sink full")
	calls := 0
	n, err := b.ExecuteStream(context.Background(), query.SliceSource(queries), func(a []float64) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != 10 || calls != 2 {
		t.Fatalf("delivered=%d calls=%d, want 10 delivered over 2 calls", n, calls)
	}
}

func TestExecuteStreamPreCancelled(t *testing.T) {
	b, queries := streamFixture(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := b.ExecuteStream(ctx, query.SliceSource(queries), func([]float64) error { return nil })
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("pre-cancelled: delivered=%d err=%v, want 0, context.Canceled", n, err)
	}
}

func TestExecuteStreamNoEvaluator(t *testing.T) {
	if _, err := (query.Batch{}).ExecuteStream(context.Background(), query.SliceSource(nil), nil); err == nil {
		t.Fatal("nil evaluator: expected error")
	}
}

// TestStreamMemoryOChunk is the tentpole's memory claim, asserted: a
// million-query workload streamed at the default chunk size allocates
// O(chunk), not O(workload). The buffered path would need ≥ 56 MB just
// for the query and answer slices (1M × (48 B query + 8 B answer));
// the stream's two in-flight chunks plus per-chunk goroutine/channel
// bookkeeping stay under 4 MB.
func TestStreamMemoryOChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	b, queries := streamFixture(t, 64)
	b.Workers = 1
	const total = 1_000_000
	i := 0
	// Cycle a fixed query set: the source itself allocates nothing, so
	// the measured delta is the pipeline's own footprint.
	src := func(dst *query.Query) (bool, error) {
		if i == total {
			return false, nil
		}
		*dst = queries[i%len(queries)]
		i++
		return true, nil
	}
	var sum float64
	sink := func(a []float64) error {
		for _, v := range a {
			sum += v
		}
		return nil
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := b.ExecuteStream(context.Background(), src, sink)
	runtime.ReadMemStats(&after)
	if err != nil || n != total {
		t.Fatalf("stream: delivered=%d err=%v", n, err)
	}
	if sum == 0 {
		t.Fatal("answers summed to 0; fixture broken")
	}
	delta := after.TotalAlloc - before.TotalAlloc
	if max := uint64(4 << 20); delta > max {
		t.Fatalf("1M-query stream allocated %d bytes, want O(chunk) ≤ %d", delta, max)
	}
}

// TestAnswerCacheLRU pins the eviction policy: least-recently-used
// entries go first, Get refreshes recency, and the counters account
// every hit, miss, and eviction.
func TestAnswerCacheLRU(t *testing.T) {
	var ctr query.CacheCounters
	c := query.NewAnswerCache(2, &ctr)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // refreshes a
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // evicts b, the LRU
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction past max=2")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a evicted instead of LRU b: %v, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = %v, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if h, m, e := ctr.Hits.Load(), ctr.Misses.Load(), ctr.Evictions.Load(); h != 3 || m != 1 || e != 1 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d, want 3/1/1", h, m, e)
	}
	// Put on an existing key updates in place, no eviction.
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("refresh Put: a=%v len=%d", v, c.Len())
	}
}

func TestAnswerCacheDisabled(t *testing.T) {
	for _, max := range []int{0, -1} {
		if c := query.NewAnswerCache(max, nil); c != nil {
			t.Fatalf("NewAnswerCache(%d) = %v, want nil (disabled)", max, c)
		}
	}
	// The nil cache is a safe always-miss: every method is a no-op.
	var c *query.AnswerCache
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

// TestBatchCacheDeterminism: a cached batch answers float64 == to the
// uncached one, the second pass over the same workload is all hits, and
// hits actually skip the evaluator (asserted via the counters).
func TestBatchCacheDeterminism(t *testing.T) {
	b, queries := streamFixture(t, 2000)
	want, err := query.Batch{Eval: b.Eval, Workers: 1}.Execute(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	var ctr query.CacheCounters
	b.Cache = query.NewAnswerCache(1<<16, &ctr)
	for _, workers := range []int{1, 4} {
		b.Workers = workers
		for pass := 0; pass < 2; pass++ {
			got, err := b.Execute(context.Background(), queries)
			if err != nil {
				t.Fatalf("workers=%d pass=%d: %v", workers, pass, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d pass=%d: answer %d = %v, uncached %v", workers, pass, i, got[i], want[i])
				}
			}
		}
	}
	// First pass misses at most once per distinct spec; the three later
	// passes are pure hits — 3 × len(queries) at minimum.
	if h := ctr.Hits.Load(); h < int64(3*len(queries)) {
		t.Fatalf("hits = %d, want ≥ %d (cache not consulted?)", h, 3*len(queries))
	}
	if m := ctr.Misses.Load(); m > int64(len(queries)) {
		t.Fatalf("misses = %d beyond one per query", m)
	}
}

// TestBatchCacheNeedsSchema: configuring a cache without the schema
// that renders its keys is a programming error, reported loudly.
func TestBatchCacheNeedsSchema(t *testing.T) {
	b, queries := streamFixture(t, 10)
	b.Schema = nil
	b.Cache = query.NewAnswerCache(16, nil)
	if _, err := b.Execute(context.Background(), queries); err == nil {
		t.Fatal("Cache without Schema: expected error")
	}
}

// TestCacheKeyCollisionFree: distinct normalized queries must render
// distinct cache keys — a collision would silently serve one query's
// answer for another. Specs are canonical by the round-trip property
// (TestSpecParseRoundTrip); here we pin distinctness across a query
// set dense enough to catch formatting ambiguities.
func TestCacheKeyCollisionFree(t *testing.T) {
	s := planSchema(t)
	_, queries := batchFixture(t, 500)
	seen := make(map[string][2][]int)
	for _, q := range queries {
		key := q.Spec(s)
		if prev, ok := seen[key]; ok {
			if !equalInts(prev[0], q.Lo()) || !equalInts(prev[1], q.Hi()) {
				t.Fatalf("key %q collides across distinct queries", key)
			}
			continue
		}
		seen[key] = [2][]int{append([]int(nil), q.Lo()...), append([]int(nil), q.Hi()...)}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
