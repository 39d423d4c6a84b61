package store

// Tests for the cluster-facing store surface: Ingest (the replica copy
// path — encoded bytes in, servable release out, bit-identical to the
// original) and the ListPrefix epoch ordering replication leans on.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestClusterIngestRoundTrip: a release shipped to a replica as codec
// bytes answers every probe bit-identically to the original, and
// re-shipping it is the idempotent ErrDuplicate, not corruption. The
// publisher's parallelism does not travel with the bytes: the copy
// reports 0 workers.
func TestClusterIngestRoundTrip(t *testing.T) {
	p := testPayload(t, 42)
	src, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put("r1", p, 3); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeRelease(&wire, p); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()

	dst, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Ingest("r1", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if stub, err := dst.Describe("r1"); err != nil || stub.Workers != 0 {
		t.Fatalf("ingested copy: Describe = %+v, %v; want Workers 0", stub, err)
	}
	orig, err := src.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	copyRel, err := dst.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	qs := probeQueries(t, orig.Payload.Schema)
	want, got := counts(t, orig, qs), counts(t, copyRel, qs)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("probe %d: ingested replica answers %v, original %v", i, got[i], want[i])
		}
	}

	// A replayed replication PUT must be a no-op, surfaced as the
	// typed duplicate error.
	if err := dst.Ingest("r1", bytes.NewReader(raw)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate ingest: err = %v, want ErrDuplicate", err)
	}
	// Garbage bytes must not register a release.
	if err := dst.Ingest("r2", bytes.NewReader([]byte("not a release"))); err == nil {
		t.Fatal("garbage ingest must fail")
	}
	if _, err := dst.Describe("r2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed ingest left a release behind: %v", err)
	}
	// Invalid IDs are rejected before any decoding happens.
	if err := dst.Ingest("", bytes.NewReader(raw)); err == nil {
		t.Fatal("empty ID must be rejected")
	}
}

// TestClusterListPrefixManyEpochs: with ≥10 epochs, the epoch list must
// rank numerically — shortest-first ordering puts alice/9 before
// alice/10; plain lexicographic would interleave ("alice/10" <
// "alice/2"). Regression guard for the ordering the budget ledger's
// epoch listing and the cluster's tenant views both rely on.
func TestClusterListPrefixManyEpochs(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 12
	// Insert in a scrambled order so the result order is the sort's
	// doing, not insertion order.
	for _, e := range []int{10, 3, 12, 1, 7, 11, 5, 2, 9, 4, 8, 6} {
		if err := s.Put(fmt.Sprintf("alice/%d", e), testPayload(t, uint64(e)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// An unrelated tenant must not leak into the prefix listing.
	if err := s.Put("alicia/1", testPayload(t, 99), 0); err != nil {
		t.Fatal(err)
	}
	got := s.ListPrefix("alice/")
	if len(got) != epochs {
		t.Fatalf("ListPrefix returned %d epochs, want %d", len(got), epochs)
	}
	for i, st := range got {
		want := fmt.Sprintf("alice/%d", i+1)
		if st.ID != want {
			t.Fatalf("epoch %d listed as %q, want %q (numeric order)", i, st.ID, want)
		}
	}
}
