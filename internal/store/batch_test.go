package store

// Batch execution meets the store here: a query.Batch runs over the
// evaluator of a Release handle, and the store may evict or reload that
// release mid-batch. The properties under test are the serving side of
// the determinism contract — a held Release stays valid while the store
// drops its own references, and an evaluator rebuilt by a reload answers
// every query bit-identically (float64 ==) to the original.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestBatchUnderEvictionReload is the mid-batch churn property: while a
// batch executes over release A's evaluator at several worker counts, a
// churner keeps forcing A in and out of residency (publishing rivals and
// re-Getting A under MaxResident=1). Every batch — including ones over
// handles obtained mid-churn, whose evaluator is a reload's rebuild —
// must return answers float64 == to the serial loop recorded up front.
func TestBatchUnderEvictionReload(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 42)
	if err := s.Put("a", p, 1); err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(p.Schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(4000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}

	relA, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		if want[i], err = relA.Eval.Count(q); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Churn: rival Puts push "a" out of the resident budget, Gets
		// reload it. Each cycle drops and rebuilds a's evaluator.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := []string{"b", "c", "d"}[i%3]
			_ = s.Remove(id) // ignore not-found on the first cycles
			if err := s.Put(id, testPayload(t, uint64(100+i%3)), 1); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Get("a"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		// A handle obtained mid-churn: its evaluator may be a reload's
		// rebuild rather than the Put-time original.
		rel, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		got, err := query.Batch{Eval: rel.Eval, Workers: workers}.Execute(context.Background(), queries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
		// The up-front handle stays valid too, however many times the
		// store has dropped its references since.
		gotOld, err := query.Batch{Eval: relA.Eval, Workers: workers}.Execute(context.Background(), queries)
		if err != nil {
			t.Fatalf("workers=%d (held handle): %v", workers, err)
		}
		for i := range want {
			if gotOld[i] != want[i] {
				t.Fatalf("workers=%d (held handle): answer %d = %v, want %v", workers, i, gotOld[i], want[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}
