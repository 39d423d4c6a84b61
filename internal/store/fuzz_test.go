package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/codec"
)

// FuzzIngest feeds arbitrary bytes to Ingest on a store with a
// directory — the path every replication push and repair pull takes.
// Ingest must never panic or leave a staged temporary behind. A refused
// copy leaves no entry and no file. An accepted copy answers Get, and
// its spill file (what /export sends) is the ingested bytes exactly, a
// v1 copy's included, unless its table failed its checksum (the test
// decodes the input to tell): then the store re-encoded it, and the
// spill file is a v2 file that verifies and holds the same matrix, bit
// for bit.
func FuzzIngest(f *testing.F) {
	p := testPayload(f, 5)
	v2 := spilledWire(f, p)
	var v1 bytes.Buffer
	if err := codec.Encode(&v1, testPayload(f, 6)); err != nil { // Table nil -> format v1
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v2, v1.Bytes(), nil, v2[:6], v2[:len(v2)/2], v2[:len(v2)-20], v2[:len(v2)-1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		err = s.Ingest("x", bytes.NewReader(data))
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
			t.Fatalf("Ingest (err %v) left %v", err, left)
		}
		if err != nil {
			assertRefused(t, s, dir, "x")
			return
		}
		rel, err := s.Get("x")
		if err != nil {
			t.Fatalf("accepted copy: Get: %v", err)
		}
		spill, err := s.OpenSpill("x")
		if err != nil {
			t.Fatal(err)
		}
		exported, err := io.ReadAll(spill)
		spill.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, derr := codec.DecodeMapped(data, nil); !errors.Is(derr, codec.ErrTable) {
			if !bytes.Equal(exported, data) {
				t.Fatalf("accepted copy exports %d bytes that differ from the %d ingested", len(exported), len(data))
			}
			return
		}
		q, _, err := codec.DecodeMapped(exported, nil)
		if err != nil || q.Table == nil {
			t.Fatalf("rebuilt spill file does not verify: %v", err)
		}
		got, want := q.Noisy.Data(), rel.Payload.Noisy.Data()
		if len(got) != len(want) {
			t.Fatalf("rebuilt spill file holds %d entries, the copy %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rebuilt spill file entry %d = %x, the copy %x", i, got[i], want[i])
			}
		}
	})
}
