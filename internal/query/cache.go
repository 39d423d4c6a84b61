// Per-release answer caching. A Privelet release is immutable — the
// paper's model (§III) spends the ε budget once at publish time, after
// which the noisy matrix M* answers unlimited queries — so a (release,
// query) pair has exactly one answer, forever. Dashboard traffic
// repeats the same single counts against that immutable release, which
// makes memoization trivially sound: the only invalidation event a
// cache needs is release deletion.
//
// The server consults the cache for /count only. Streamed workloads
// bypass it: Batch.run partitions hits from misses serially, rendering
// and probing one key per query, and on a 40k-query census workload
// that costs more than answering every query on the worker pool —
// about 7.0 ms for a pass of all hits against 3.3 ms uncached at 2
// workers on a 2-vCPU Xeon VM (BENCH_query.json).
//
// The cache key is the canonical Query.Spec rendering (attributes in
// schema order, normalized inclusive intervals): distinct keys iff
// distinct constraint sets, so collisions are impossible within one
// release, and equivalent spellings of one query ("Age=3..5,Sex=#1" vs
// "Sex = #1, Age=3..5") share an entry. Cached values are the float64
// the same evaluator produced, so a hit is bit-identical to a recompute
// — caching is a performance knob under the batch determinism contract.

package query

import (
	"sync"
	"sync/atomic"
)

// CacheCounters aggregates hit/miss/eviction counts across any number
// of AnswerCaches — the store shares one set across all its releases so
// /stats can report totals that survive individual release removal.
type CacheCounters struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
}

// AnswerCache is a bounded LRU of query answers for one release. All
// methods are safe for concurrent use; a nil *AnswerCache is a valid
// always-miss cache (Get reports a miss, Put is a no-op), so callers
// plumb one pointer without nil checks.
type AnswerCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheNode
	// head/tail of the intrusive LRU list; head is most recent.
	head, tail *cacheNode
	ctr        *CacheCounters
}

// cacheNode is one map entry threaded on the LRU list.
type cacheNode struct {
	key        string
	val        float64
	prev, next *cacheNode
}

// NewAnswerCache builds a cache bounded to max entries, reporting into
// ctr (which may be shared across caches; nil allocates a private set).
// max ≤ 0 disables caching by returning nil — the always-miss cache.
func NewAnswerCache(max int, ctr *CacheCounters) *AnswerCache {
	if max <= 0 {
		return nil
	}
	if ctr == nil {
		ctr = &CacheCounters{}
	}
	return &AnswerCache{max: max, entries: make(map[string]*cacheNode), ctr: ctr}
}

// Get returns the cached answer for the canonical spec key, marking the
// entry most-recently-used on a hit.
func (c *AnswerCache) Get(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	return c.lookupString(key)
}

// lookup is the byte-keyed probe the batch hot path uses: looking up
// map[string] with a string([]byte) conversion at the index expression
// compiles without allocating, so a cache hit costs a map probe and a
// list splice — no per-query garbage.
func (c *AnswerCache) lookup(key []byte) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	n, ok := c.entries[string(key)]
	if !ok {
		c.mu.Unlock()
		c.ctr.Misses.Add(1)
		return 0, false
	}
	c.moveToFront(n)
	v := n.val
	c.mu.Unlock()
	c.ctr.Hits.Add(1)
	return v, true
}

func (c *AnswerCache) lookupString(key string) (float64, bool) {
	c.mu.Lock()
	n, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.ctr.Misses.Add(1)
		return 0, false
	}
	c.moveToFront(n)
	v := n.val
	c.mu.Unlock()
	c.ctr.Hits.Add(1)
	return v, true
}

// Put inserts (or refreshes) the answer under the canonical spec key,
// evicting the least-recently-used entry when the bound is exceeded.
func (c *AnswerCache) Put(key string, val float64) {
	if c == nil {
		return
	}
	evicted := false
	c.mu.Lock()
	if n, ok := c.entries[key]; ok {
		// Immutable release ⇒ val can only equal n.val; refresh recency.
		n.val = val
		c.moveToFront(n)
		c.mu.Unlock()
		return
	}
	n := &cacheNode{key: key, val: val}
	c.entries[key] = n
	c.pushFront(n)
	if len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		evicted = true
	}
	c.mu.Unlock()
	if evicted {
		c.ctr.Evictions.Add(1)
	}
}

// Len returns the current entry count.
func (c *AnswerCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// pushFront links n as the most-recently-used node.
func (c *AnswerCache) pushFront(n *cacheNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// unlink removes n from the list.
func (c *AnswerCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// moveToFront marks n most-recently-used.
func (c *AnswerCache) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
