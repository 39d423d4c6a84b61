package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

func TestRepairerConfigValidation(t *testing.T) {
	nodes := []Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}
	ring, err := NewVersionedRing(nodes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRepairer(RepairConfig{Self: "a", Store: st}); err == nil {
		t.Fatal("repairer accepted a nil ring")
	}
	if _, err := NewRepairer(RepairConfig{Self: "a", Ring: ring}); err == nil {
		t.Fatal("repairer accepted a nil store")
	}
	if _, err := NewRepairer(RepairConfig{Self: "ghost", Ring: ring, Store: st}); err == nil || !strings.Contains(err.Error(), "not in the ring") {
		t.Fatalf("repairer accepted a non-member self: %v", err)
	}
	rep, err := NewRepairer(RepairConfig{Self: "a", Ring: ring, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rep.cfg.Interval != DefaultRepairInterval {
		t.Fatalf("default interval = %v, want %v", rep.cfg.Interval, DefaultRepairInterval)
	}
	// Stop without Start is a no-op, twice.
	rep.Stop()
	rep.Stop()
	if st := rep.Stats(); st.Sweeps != 0 || st.LastSweep != "" {
		t.Fatalf("fresh repairer stats = %+v", st)
	}
}

// TestRepairJitter: each background sweep waits Interval plus a draw
// from [0, Interval/10), and an Interval too short to leave room for
// an offset gets none instead of a panic.
func TestRepairJitter(t *testing.T) {
	ring, err := NewVersionedRing([]Node{{Name: "a", URL: "http://a"}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewRepairer(RepairConfig{Self: "a", Ring: ring, Store: st, Interval: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if j := rep.jitter(); j < 0 || j >= 3*time.Second {
			t.Fatalf("draw %d: jitter %v outside [0, 3s)", i, j)
		}
	}
	rep, err = NewRepairer(RepairConfig{Self: "a", Ring: ring, Store: st, Interval: 5 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if j := rep.jitter(); j != 0 {
		t.Fatalf("jitter at a 5ns interval = %v, want 0", j)
	}
}

func TestRepairRingVersioning(t *testing.T) {
	nodes := []Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}
	r0, err := NewVersionedRing(nodes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Version() != 0 {
		t.Fatalf("version-0 ring reports version %d", r0.Version())
	}
	r7, err := NewVersionedRing(nodes, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r7.Version() != 7 {
		t.Fatalf("versioned ring reports %d, want 7", r7.Version())
	}
	// Placement is independent of the version: the version gates stale
	// senders, it does not move data.
	for _, key := range []string{"alice", "bob", "r1", "x00ff"} {
		p0, p7 := r0.ReplicasFor(key), r7.ReplicasFor(key)
		for i := range p0 {
			if p0[i].Name != p7[i].Name {
				t.Fatalf("placement of %q differs across versions: %v vs %v", key, p0, p7)
			}
		}
	}
	if !r7.Contains("a") || !r7.Contains("b") || r7.Contains("c") {
		t.Fatal("Contains misreports membership")
	}
}
