package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRemoveInMemory(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("r1", testPayload(t, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Remove: %v, want ErrNotFound", err)
	}
	if _, err := s.Describe("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Describe after Remove: %v, want ErrNotFound", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len after Remove = %d", n)
	}
	st := s.Stats()
	if st.Removals != 1 || st.Resident != 0 {
		t.Fatalf("stats after Remove: %+v", st)
	}
	if err := s.Remove("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove: %v, want ErrNotFound", err)
	}
	// The ID is free again.
	if err := s.Put("r1", testPayload(t, 2), 1); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDeletesSpillFile(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Put(fmt.Sprintf("r%d", i), testPayload(t, uint64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	// r1 was evicted (budget 1), so its only copy is the spill file.
	for _, id := range []string{"r1", "r2", "r3"} {
		if _, err := os.Stat(s.spillPath(id)); err != nil {
			t.Fatalf("spill file for %s: %v", id, err)
		}
	}
	if err := s.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("r3"); err != nil { // resident one
		t.Fatal(err)
	}
	for _, id := range []string{"r1", "r3"} {
		if _, err := os.Stat(s.spillPath(id)); !os.IsNotExist(err) {
			t.Fatalf("spill file for removed %s still present (err=%v)", id, err)
		}
	}

	// A store reopened on the directory recovers only the survivor:
	// removal is durable.
	s2, err := New(Config{Dir: dir, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("recovered %d releases, want 1", n)
	}
	if _, err := s2.Get("r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed release recovered: %v", err)
	}
}

// TestRemoveKeepsHeldReleasesValid: removal only drops the store's
// references — a Release obtained before the removal keeps answering.
func TestRemoveKeepsHeldReleasesValid(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("r1", testPayload(t, 3), 1); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	qs := probeQueries(t, rel.Payload.Schema)
	before := counts(t, rel, qs)
	if err := s.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	after := counts(t, rel, qs)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("held release changed answers after Remove: %v vs %v", before, after)
		}
	}
}

// TestRemoveConcurrentWithReadersAndEviction hammers Remove against
// Get/Put/eviction under -race: accounting must stay consistent and no
// operation may panic or corrupt another's entry. Each iteration puts a
// new generation of the release under the ID the previous iteration
// removed, evicts it and reloads it: the reload — whether it reinstalls
// the evicted payload or maps the file — must serve that generation,
// never a removed one.
func TestRemoveConcurrentWithReadersAndEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}
	const ids = 8
	var wg sync.WaitGroup
	for g := 0; g < ids; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", g)
			for iter := 0; iter < 20; iter++ {
				gen := uint64(g*1000 + iter)
				if err := s.Put(id, testPayload(t, gen), 1); err != nil {
					t.Errorf("Put %s: %v", id, err)
					return
				}
				// Concurrent readers may see the release or ErrNotFound,
				// nothing else.
				if _, err := s.Get(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get %s: %v", id, err)
					return
				}
				// Evict least-recently-used releases until this one is
				// out; nothing else touches it, so it soon is.
				for st, err := s.Describe(id); err == nil && st.Resident && evictLRU(s); st, err = s.Describe(id) {
				}
				rel, err := s.Get(id)
				if err != nil {
					t.Errorf("reloading %s: %v", id, err)
					return
				}
				if got, want := rel.Payload.Noisy.Data()[0], float64(gen)+math.Pi; got != want {
					t.Errorf("%s generation %d reloaded entry 0 = %v, want %v", id, gen, got, want)
					return
				}
				if err := s.Remove(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Remove %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := s.Stats()
	if st.Releases != 0 || st.Resident != 0 {
		t.Fatalf("store not empty after churn: %+v", st)
	}
	if st.Reloads == 0 {
		t.Fatalf("churn never reloaded a release: %+v", st)
	}
	// Every spill file must be gone too, and no staged temporary may be
	// left. Only the durable tombstone markers survive — each ID's last
	// operation was a Remove, and the marker is what keeps replication
	// from resurrecting it.
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tombs := 0
	for _, d := range dirents {
		if strings.HasSuffix(d.Name(), tombExt) {
			tombs++
			continue
		}
		t.Fatalf("orphan file after churn: %s", d.Name())
	}
	if tombs != ids {
		t.Fatalf("tombstone markers after churn = %d, want %d", tombs, ids)
	}
}

// evictLRU evicts the least-recently-used evictable release, as a
// resident-budget overrun would.
func evictLRU(s *Store) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictOne()
}

// TestRemoveRacingReusingPut races Remove(id) with a Put that reuses id
// as soon as the Remove has freed it. Remove's marker write and the
// Put's marker unlink must not interleave: after every round the
// reborn release is live, no .tomb sits beside its .prvl, and a store
// recovered from the directory serves it.
func TestRemoveRacingReusingPut(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const id = "alice/1"
	if err := s.Put(id, testPayload(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, "alice~1"+tombExt)
	for round := 1; round <= 500; round++ {
		p := testPayload(t, uint64(round))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.Remove(id); err != nil {
				t.Errorf("round %d: Remove: %v", round, err)
			}
		}()
		go func() {
			defer wg.Done()
			// Spin until the Remove has freed the ID.
			for {
				err := s.Put(id, p, 0)
				if err == nil {
					return
				}
				if !errors.Is(err, ErrDuplicate) {
					t.Errorf("round %d: Put: %v", round, err)
					return
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		if _, err := os.Stat(marker); !os.IsNotExist(err) {
			t.Fatalf("round %d: a tombstone marker sits beside the live release (stat err %v)", round, err)
		}
		re, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := re.Get(id)
		if err != nil {
			t.Fatalf("round %d: recovery lost the live release: %v", round, err)
		}
		if got, want := rel.Payload.Noisy.Data()[0], float64(round)+math.Pi; got != want {
			t.Fatalf("round %d: recovered entry 0 = %v, want %v", round, got, want)
		}
	}
}
