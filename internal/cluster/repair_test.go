package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
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

// TestRepairLimitBodyNamesLimit: a body up to the limit reads whole,
// and one byte more fails with an error naming the limit instead of
// ending early as if the body were complete.
func TestRepairLimitBodyNamesLimit(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024} {
		got, err := io.ReadAll(limitBody(strings.NewReader(strings.Repeat("x", n)), 1024))
		if err != nil || len(got) != n {
			t.Fatalf("%d-byte body: read %d bytes, err %v", n, len(got), err)
		}
	}
	got, err := io.ReadAll(limitBody(strings.NewReader(strings.Repeat("x", 1025)), 1024))
	if err == nil || !strings.Contains(err.Error(), "1024-byte limit") || len(got) != 1024 {
		t.Fatalf("1025-byte body: read %d bytes, err %v; want 1024 and an error naming the limit", len(got), err)
	}
}

// TestRepairStopContract holds a sweep on a peer's /releases listing
// and stops the repairer under it.
func TestRepairStopContract(t *testing.T) {
	peer := newGatedPeer(t,
		func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, `[]`) },
		func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/releases" {
				http.NotFound(w, req)
				return
			}
			io.WriteString(w, `[{"id":"r1"}]`)
		})
	ring, err := NewVersionedRing([]Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: peer.ts.URL}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewRepairer(RepairConfig{Self: "a", Ring: ring, Store: st, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	assertStopContract(t, rep.Start, rep.Stop, peer, func() bool { return rep.Stats().LastScanned == 1 })
}

// TestRepairPullFallsToNextHolder: a holder whose /export answers 500
// costs the sweep one error that names the export, and the pull moves
// on to the next holder.
func TestRepairPullFallsToNextHolder(t *testing.T) {
	const id = "r1"
	good := httptest.NewServer(server.New(server.Config{NodeName: "good"}).Handler())
	defer good.Close()
	clusterPublish(t, good.URL, clusterParams+"&id="+id, clusterCSV)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/releases" {
			io.WriteString(w, `[{"id":"`+id+`"}]`)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()

	// A sweep tries the holders in replica order: put the failing
	// export first.
	nodes := []Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: bad.URL}, {Name: "c", URL: good.URL}}
	ring, err := NewVersionedRing(nodes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var holders []string
	for _, n := range ring.ReplicasFor(RouteKey(id)) {
		if n.Name != "a" {
			holders = append(holders, n.Name)
		}
	}
	if holders[0] != "b" {
		nodes[1].URL, nodes[2].URL = good.URL, bad.URL
		if ring, err = NewVersionedRing(nodes, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewRepairer(RepairConfig{Self: "a", Ring: ring, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rep.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pull %s←%s: export of %q from %s: status 500", id, holders[0], id, holders[0])
	if len(report.Errors) != 1 || report.Errors[0] != want {
		t.Fatalf("sweep errors = %q, want [%q]", report.Errors, want)
	}
	if len(report.Pulled) != 1 || report.Pulled[0] != id+"←"+holders[1] {
		t.Fatalf("sweep pulled %q, want [%s←%s]", report.Pulled, id, holders[1])
	}
	if _, err := st.Get(id); err != nil {
		t.Fatalf("pulled copy: %v", err)
	}
}
