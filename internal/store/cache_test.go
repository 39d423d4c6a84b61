package store

// Answer-cache lifecycle at the store boundary: a cache belongs to one
// store entry, survives LRU eviction (it is bounded; holding it is
// cheaper than recomputing a workload), dies with Remove, and is built
// fresh when an ID is reused — so a cached answer can never outlive, or
// leak into, a different release under the same ID. The churn test runs
// that contract under -race against concurrent cached batches.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

// cachedBatch answers queries through rel's cache-equipped batch.
func cachedBatch(t testing.TB, rel Release, queries []query.Query, workers int) []float64 {
	t.Helper()
	got, err := query.Batch{
		Eval: rel.Eval, Workers: workers,
		Cache: rel.Cache, Schema: rel.Payload.Schema,
	}.Execute(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStoreAnswerCacheLifecycle pins the single-threaded lifecycle:
// populated on use, shared across Gets of the same entry, preserved
// across eviction+reload, discarded by Remove, fresh on ID reuse.
func TestStoreAnswerCacheLifecycle(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), MaxResident: 1, AnswerCache: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testPayload(t, 1), 1); err != nil {
		t.Fatal(err)
	}
	relA, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if relA.Cache == nil {
		t.Fatal("Config.AnswerCache > 0 but Release.Cache is nil")
	}
	gen, err := workload.NewGenerator(relA.Payload.Schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(200, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := cachedBatch(t, relA, queries, 1)
	warmLen := relA.Cache.Len()
	if warmLen == 0 {
		t.Fatal("batch over a cached release left the cache empty")
	}

	// Evict "a" by publishing a rival under MaxResident=1; the reloaded
	// handle carries the same warm cache object.
	if err := s.Put("b", testPayload(t, 2), 1); err != nil {
		t.Fatal(err)
	}
	relA2, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if relA2.Cache != relA.Cache {
		t.Fatal("eviction+reload replaced the answer cache; warm entries lost")
	}
	got := cachedBatch(t, relA2, queries, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-reload cached answer %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Remove drops the cache with the entry; re-Putting the same ID gets
	// a fresh, empty cache — never the removed release's answers.
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testPayload(t, 3), 1); err != nil {
		t.Fatal(err)
	}
	relA3, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if relA3.Cache == relA.Cache {
		t.Fatal("ID reuse kept the removed release's cache")
	}
	if relA3.Cache.Len() != 0 {
		t.Fatalf("fresh cache has %d entries", relA3.Cache.Len())
	}
	// And the new payload's answers differ from the old — proving a
	// stale cache would have been observable had it leaked.
	fresh := cachedBatch(t, relA3, queries, 1)
	same := true
	for i := range want {
		if fresh[i] != want[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("salt 1 and salt 3 payloads answer identically; fixture too weak for the leak check")
	}
}

func TestStoreAnswerCacheDisabled(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testPayload(t, 1), 1); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cache != nil {
		t.Fatal("AnswerCache unset but Release.Cache non-nil")
	}
	st := s.Stats()
	if st.AnswerCacheMax != 0 || st.AnswerCacheEntries != 0 {
		t.Fatalf("disabled cache surfaces on stats: %+v", st)
	}
}

// TestCachedBatchUnderChurn is the -race churn property: concurrent
// cached batch queries run while other goroutines Remove and re-Put the
// same ID with different payloads and force eviction/reload cycles.
// Whatever interleaving happens, a handle's answers must match the
// payload that handle was served with — the cache attached to a removed
// release must never answer for its successor, and vice versa.
func TestCachedBatchUnderChurn(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), MaxResident: 1, AnswerCache: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Two generations of release "a", with per-salt expected answers.
	salts := []uint64{10, 20}
	p := testPayload(t, salts[0])
	gen, err := workload.NewGenerator(p.Schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(300, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[float64][]float64) // keyed by the payload's first entry
	for _, salt := range salts {
		pl := testPayload(t, salt)
		ev := query.NewEvaluator(pl.Noisy.Clone())
		w := make([]float64, len(queries))
		for i, q := range queries {
			if w[i], err = ev.Count(q); err != nil {
				t.Fatal(err)
			}
		}
		want[pl.Noisy.Data()[0]] = w
	}

	if err := s.Put("a", testPayload(t, salts[0]), 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churners, queriers sync.WaitGroup

	// Churner 1: flip "a" between the two generations via Remove+Put.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Remove("a")
			if err := s.Put("a", testPayload(t, salts[i%2]), 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Churner 2: rival Puts force eviction/reload of whatever is resident.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := []string{"b", "c"}[i%2]
			_ = s.Remove(id)
			if err := s.Put(id, testPayload(t, uint64(100+i%2)), 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Queriers: run cached batches against whatever generation of "a"
	// they catch, and check the answers against that handle's payload.
	for g := 0; g < 3; g++ {
		queriers.Add(1)
		go func(workers int) {
			defer queriers.Done()
			for n := 0; n < 40; n++ {
				rel, err := s.Get("a")
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // caught the gap between Remove and Put
					}
					t.Error(err)
					return
				}
				w, ok := want[rel.Payload.Noisy.Data()[0]]
				if !ok {
					t.Errorf("handle carries unknown payload generation")
					return
				}
				got, err := query.Batch{
					Eval: rel.Eval, Workers: workers,
					Cache: rel.Cache, Schema: rel.Payload.Schema,
				}.Execute(context.Background(), queries)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range w {
					if got[i] != w[i] {
						t.Errorf("workers=%d: answer %d = %v, want %v — cache served a different release's answer",
							workers, i, got[i], w[i])
						return
					}
				}
			}
		}(1 + g)
	}
	queriers.Wait() // queriers finish first; then stop the churners
	close(stop)
	churners.Wait()
}
