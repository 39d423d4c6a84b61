package store

// Tombstone and crash-safety coverage for the anti-entropy surface:
// Remove leaves a durable delete marker that Ingest honors (so repair
// never resurrects a deleted release), Put clears it on deliberate ID
// reuse, recovery finishes a delete the process died in the middle of,
// and a failed Ingest leaves no partial spill state behind (the
// stage-then-rename contract).

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/query"
)

// encodePayload renders p to the wire bytes an /export or a repair push
// would carry.
func encodePayload(t testing.TB, p *codec.Payload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRelease(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tombstoned reports whether s lists id among its delete markers.
func tombstoned(s *Store, id string) bool { return slices.Contains(s.Tombstones(), id) }

func TestRepairTombstoneLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 1)
	wire := encodePayload(t, p)
	if err := s.Put("r1", p, 0); err != nil {
		t.Fatal(err)
	}
	if tombstoned(s, "r1") || len(s.Tombstones()) != 0 {
		t.Fatal("fresh release reports a tombstone")
	}
	if err := s.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if !tombstoned(s, "r1") {
		t.Fatal("Remove left no tombstone")
	}
	if got := s.Tombstones(); !reflect.DeepEqual(got, []string{"r1"}) {
		t.Fatalf("Tombstones() = %v, want [r1]", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "r1.tomb")); err != nil {
		t.Fatalf("tombstone marker not durable: %v", err)
	}
	if st := s.Stats(); st.Tombstones != 1 {
		t.Fatalf("Stats.Tombstones = %d, want 1", st.Tombstones)
	}

	// Replication must not resurrect the deleted release.
	err = s.Ingest("r1", bytes.NewReader(wire))
	if !errors.Is(err, ErrDeleted) {
		t.Fatalf("Ingest of tombstoned ID: err = %v, want ErrDeleted", err)
	}
	if _, err := s.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused ingest registered the release: %v", err)
	}

	// A deliberate publish reusing the ID clears the marker.
	if err := s.Put("r1", testPayload(t, 2), 0); err != nil {
		t.Fatal(err)
	}
	if tombstoned(s, "r1") {
		t.Fatal("Put did not clear the tombstone")
	}
	if _, err := os.Stat(filepath.Join(dir, "r1.tomb")); !os.IsNotExist(err) {
		t.Fatalf("tombstone marker survived Put: %v", err)
	}
	// And replication of the reborn release works again under other IDs.
	if err := s.Ingest("r2", bytes.NewReader(wire)); err != nil {
		t.Fatal(err)
	}
}

func TestRepairTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 3)
	wire := encodePayload(t, p)
	if err := s.Put("gone1", p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone1"); err != nil {
		t.Fatal(err)
	}
	// The marker is staged and renamed, like spill files: a crash
	// mid-write strands only a tmp file, which recovery sweeps and
	// never reads as a tombstone — in the staged form and in the fixed
	// form earlier versions wrote.
	if left, _ := filepath.Glob(filepath.Join(dir, "gone1.tomb*.tmp")); len(left) != 0 {
		t.Fatalf("tombstone write left its tmp file: %v", left)
	}
	strandedFiles := []string{filepath.Join(dir, "gone2.tomb.tmp"), filepath.Join(dir, "gone3.tomb.1x2y3z.tmp")}
	for _, stranded := range strandedFiles {
		if err := os.WriteFile(stranded, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !tombstoned(re, "gone1") {
		t.Fatal("tombstone lost across restart")
	}
	if tombstoned(re, "gone2") || tombstoned(re, "gone3") {
		t.Fatal("recovery read a stranded tmp file as a tombstone")
	}
	for _, stranded := range strandedFiles {
		if _, err := os.Stat(stranded); !os.IsNotExist(err) {
			t.Fatalf("recovery left the stranded tombstone tmp file %s", stranded)
		}
	}
	if err := re.Ingest("gone1", bytes.NewReader(wire)); !errors.Is(err, ErrDeleted) {
		t.Fatalf("post-restart Ingest of tombstoned ID: err = %v, want ErrDeleted", err)
	}
}

// TestSpillAndMarkerModes: spill files and markers get os.Create's
// mode, 0666 under the umask, however their temporaries are staged.
func TestSpillAndMarkerModes(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"kept", "gone"} {
		if err := s.Put(id, testPayload(t, 9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kept.prvl", "gone.tomb"} {
		got, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode() != want.Mode() {
			t.Errorf("%s has mode %v, os.Create gives %v", name, got.Mode(), want.Mode())
		}
	}
}

// removeOnRead is an Ingest body that removes id from s on its first
// Read, landing a DELETE while Ingest is decoding.
type removeOnRead struct {
	s       *Store
	id      string
	r       io.Reader
	removed bool
}

func (r *removeOnRead) Read(p []byte) (int, error) {
	if !r.removed {
		r.removed = true
		if err := r.s.Remove(r.id); err != nil {
			return 0, err
		}
	}
	return r.r.Read(p)
}

// TestRepairIngestRacingRemove: a repair push of a release this node
// holds races a DELETE that lands mid-decode. The delete must win — the
// push is refused with ErrDeleted, and the release stays deleted in
// memory, on disk and across a restart.
func TestRepairIngestRacingRemove(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 8)
	wire := encodePayload(t, p)
	if err := s.Put("r1", p, 0); err != nil {
		t.Fatal(err)
	}
	err = s.Ingest("r1", &removeOnRead{s: s, id: "r1", r: bytes.NewReader(wire)})
	if !errors.Is(err, ErrDeleted) {
		t.Fatalf("Ingest racing Remove: err = %v, want ErrDeleted", err)
	}
	if _, err := s.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted release served again: %v", err)
	}
	if !tombstoned(s, "r1") {
		t.Fatal("Ingest cleared the tombstone")
	}
	if _, err := os.Stat(filepath.Join(dir, "r1.tomb")); err != nil {
		t.Fatalf("tombstone marker gone from disk: %v", err)
	}
	re, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted release recovered after restart: %v", err)
	}
}

// TestRepairRecoveryFinishesCrashedDelete: the process died after
// Remove wrote the marker but before it unlinked the spill file.
// Recovery must honor the marker — sweep the orphan file and keep the
// release deleted — not resurrect it.
func TestRepairRecoveryFinishesCrashedDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("half1", testPayload(t, 4), 0); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: marker on disk, spill file still there.
	f, err := os.Create(filepath.Join(dir, "half1.tomb"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Get("half1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("recovery resurrected a tombstoned release: %v", err)
	}
	if !tombstoned(re, "half1") {
		t.Fatal("recovery dropped the tombstone")
	}
	if _, err := os.Stat(filepath.Join(dir, "half1.prvl")); !os.IsNotExist(err) {
		t.Fatalf("orphan spill file survived recovery: %v", err)
	}
}

// TestRepairIngestCrashSafety: a write error mid-ingest must leave no
// partial spill file (the stage-then-rename contract), free the ID, and
// let a straight retry succeed.
func TestRepairIngestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 5)
	wire := encodePayload(t, p)

	// Fault 1: the payload dies mid-wire (a truncated replication push).
	// Decode fails before any file I/O; nothing may exist afterwards.
	if err := s.Ingest("c1", bytes.NewReader(wire[:len(wire)/2])); err == nil {
		t.Fatal("truncated ingest succeeded")
	}
	assertNoSpillState(t, dir, "c1")

	// Fault 2: the spill write itself fails — a directory blocks the
	// final c1.prvl path, so the rename errors where a full disk would
	// fail the write. (The temporary's name is random, so it cannot be
	// blocked; a read-only directory is no use either: the test may run
	// as root, which ignores permission bits.)
	block := filepath.Join(dir, "c1.prvl")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("c1", bytes.NewReader(wire)); err == nil {
		t.Fatal("ingest succeeded despite spill write failure")
	}
	if _, err := s.Get("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed ingest left the release registered: %v", err)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	assertNoSpillState(t, dir, "c1")

	// The retry (same ID, same bytes) succeeds and answers queries.
	if err := s.Ingest("c1", bytes.NewReader(wire)); err != nil {
		t.Fatalf("retry after write failure: %v", err)
	}
	rel, err := s.Get("c1")
	if err != nil {
		t.Fatal(err)
	}
	want := counts(t, Release{ID: "ref", Payload: p, Eval: query.NewEvaluator(p.Noisy)}, probeQueries(t, p.Schema))
	got := counts(t, rel, probeQueries(t, rel.Payload.Schema))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried ingest answers %v, want %v", got, want)
	}

	// Fault 3: a crash mid-spill strands a tmp file, in the staged form
	// or in the fixed form earlier versions wrote; the next recovery
	// sweeps both without disturbing healthy releases.
	strandedFiles := []string{filepath.Join(dir, "c2.prvl.tmp"), filepath.Join(dir, "c3.prvl.9f8e7d.tmp")}
	for _, stranded := range strandedFiles {
		if err := os.WriteFile(stranded, wire[:len(wire)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, stranded := range strandedFiles {
		if _, err := os.Stat(stranded); !os.IsNotExist(err) {
			t.Fatalf("recovery left the stranded tmp file %s", stranded)
		}
	}
	if _, err := re.Get("c1"); err != nil {
		t.Fatalf("healthy release lost during tmp sweep: %v", err)
	}
}

// assertNoSpillState fails if any on-disk artifact for id exists: its
// spill file, its marker or a temporary staged for either.
func assertNoSpillState(t *testing.T, dir, id string) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(dir, id+".*")); len(left) != 0 {
		t.Fatalf("unexpected artifacts %v", left)
	}
}

func TestRepairIDsListing(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r10", "r2", "alice/1", "r1"} {
		if err := s.Put(id, testPayload(t, 7), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("r2"); err != nil {
		t.Fatal(err)
	}
	// Shortest-first then lexicographic, tombstoned IDs excluded.
	want := []string{"r1", "r10", "alice/1"}
	if got := s.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
}
