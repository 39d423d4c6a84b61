package store

// Tests for the cluster-facing store surface: Ingest (the replica copy
// path — encoded bytes in, servable release out, bit-identical to the
// original) and the ListPrefix epoch ordering replication leans on.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
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

// spilledWire puts p into a store with a directory and returns its
// spill file: the v2 bytes a primary's /export sends.
func spilledWire(t testing.TB, p *codec.Payload) []byte {
	t.Helper()
	src, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put("src", p, 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src.spillPath("src"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// assertRefused fails unless a refused Ingest of id left nothing
// behind: no entry, no spill file and no staged temporary.
func assertRefused(t *testing.T, s *Store, dir, id string) {
	t.Helper()
	if _, err := s.Describe(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused copy %s registered: %v", id, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("refused copy %s left %v", id, left)
	}
}

// TestIngestPrefixCuts ingests every prefix of a v2 encoding into a
// store with a directory. A cut into the header or the matrix section
// is refused and leaves no entry and no file. A cut into the table
// section keeps the whole matrix, so like any codec.ErrTable copy it is
// taken only through a counted rebuild, which restores the full
// encoding byte for byte: no cut ever registers bytes other than the
// sender's. One flipped byte in the magic or the version is refused
// too.
func TestIngestPrefixCuts(t *testing.T) {
	raw := spilledWire(t, testPayload(t, 31))
	var rebuilt int64
	for k := range len(raw) {
		dir := t.TempDir()
		s, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("cut%d", k)
		err = s.Ingest(id, bytes.NewReader(raw[:k]))
		_, _, herr := codec.DecodeHeader(raw[:k])
		if (err == nil) != (herr == nil) {
			t.Fatalf("cut at %d of %d: Ingest err = %v, but the matrix section decodes: %v", k, len(raw), err, herr == nil)
		}
		if err != nil {
			assertRefused(t, s, dir, id)
			continue
		}
		rebuilt++
		if st := s.Stats(); st.Rebuilds != 1 {
			t.Fatalf("cut at %d taken with Rebuilds = %d, want 1", k, st.Rebuilds)
		}
		if got, err := os.ReadFile(s.spillPath(id)); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("cut at %d: rebuilt spill file differs from the full encoding (err %v)", k, err)
		}
	}
	if rebuilt == 0 || rebuilt > int64(len(raw))/2 {
		t.Fatalf("%d of %d cuts kept the matrix section", rebuilt, len(raw))
	}
	for _, at := range []int{0, 4} { // magic, version
		dir := t.TempDir()
		s, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), raw...)
		bad[at] ^= 0x10
		if err := s.Ingest("flip", bytes.NewReader(bad)); err == nil {
			t.Fatalf("copy with byte %d flipped was taken", at)
		}
		assertRefused(t, s, dir, "flip")
	}
}

// TestIngestTableFlipRebuilds: a copy with one flipped table byte fails
// its table checksum, so the store rebuilds the table once, counted, and
// writes a v2 spill file of its own that verifies — byte-identical to
// the sender's, since the table build is deterministic.
func TestIngestTableFlipRebuilds(t *testing.T) {
	p := testPayload(t, 32)
	raw := spilledWire(t, p)
	bad := append([]byte(nil), raw...)
	bad[len(bad)-17] ^= 0x01 // the last table entry's last byte: total, crc and end magic follow
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("x", bytes.NewReader(bad)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	spill, err := os.ReadFile(s.spillPath("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := codec.DecodeMapped(spill, nil); err != nil {
		t.Fatalf("rebuilt spill file does not verify: %v", err)
	}
	if !bytes.Equal(spill, raw) {
		t.Fatal("rebuilt spill file differs from the sender's encoding")
	}
	rel, err := s.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	want := counts(t, Release{Payload: p, Eval: query.NewEvaluator(p.Noisy)}, probeQueries(t, p.Schema))
	if got := counts(t, rel, probeQueries(t, p.Schema)); !slices.Equal(got, want) {
		t.Fatalf("rebuilt copy answers %v, want %v", got, want)
	}
}

// TestOpenSpill: OpenSpill opens a live release's spill file, its bytes
// exactly as Put wrote them, and keeps them readable after a Remove
// unlinks the file. An unknown or removed ID is ErrNotFound, and a
// store without a directory returns no file.
func TestOpenSpill(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 12)
	if err := s.Put("r1", p, 1); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenSpill("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodePayload(t, p); !bytes.Equal(got, want) {
		t.Fatalf("spill file read after Remove differs from EncodeRelease (%d vs %d bytes)", len(got), len(want))
	}
	for _, id := range []string{"r1", "never"} {
		if _, err := s.OpenSpill(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("OpenSpill(%q) err = %v, want ErrNotFound", id, err)
		}
	}
	mem, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("r1", testPayload(t, 12), 1); err != nil {
		t.Fatal(err)
	}
	if f, err := mem.OpenSpill("r1"); f != nil || err != nil {
		t.Fatalf("OpenSpill without a directory = %v, %v; want no file and no error", f, err)
	}
	if _, err := os.Stat(s.spillPath("r1")); !os.IsNotExist(err) {
		t.Fatalf("removed release's spill file still linked: %v", err)
	}
}
