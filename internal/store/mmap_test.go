package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/query"
)

// randomPayload builds a multi-attribute release whose schema and noisy
// values are a deterministic function of the rng — calling it twice with
// equally-seeded rngs yields float64-identical payloads, which is what
// lets the equivalence test hand "the same" release to three stores
// without sharing mutable state between them.
func randomPayload(t testing.TB, rnd *rand.Rand) *codec.Payload {
	t.Helper()
	nattr := 1 + rnd.Intn(3)
	attrs := make([]dataset.Attribute, nattr)
	dims := make([]int, nattr)
	for i := range attrs {
		dims[i] = 2 + rnd.Intn(7)
		attrs[i] = dataset.OrdinalAttr(fmt.Sprintf("A%d", i), dims[i])
	}
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.New(dims...)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Data()
	for i := range data {
		data[i] = rnd.NormFloat64() * 100
	}
	return &codec.Payload{
		Meta:   codec.Meta{Mechanism: "privelet+", Epsilon: 0.9, Rho: 3, Lambda: 5, Bound: 2},
		Schema: schema,
		Noisy:  m,
	}
}

// randomQueries draws n range queries constraining every attribute.
func randomQueries(t testing.TB, schema *dataset.Schema, rnd *rand.Rand, n int) []query.Query {
	t.Helper()
	qs := make([]query.Query, 0, n)
	for len(qs) < n {
		b := query.NewBuilder(schema)
		for i := 0; i < schema.NumAttrs(); i++ {
			a := schema.Attr(i)
			lo := rnd.Intn(a.Size)
			hi := lo + rnd.Intn(a.Size-lo)
			b = b.Range(a.Name, lo, hi)
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestMMapReloadEquivalence is the property test behind the mmap
// tentpole: over random schemas, matrices and query workloads, a
// release served from a memory-mapped spilled table, a heap-backed one
// (the spilled bytes fed through Ingest on a store without a
// directory), a mapped copy (the same bytes streamed by Ingest into a
// store with one, as a replica receives them) and one that was never
// evicted must agree on every answer float64-exactly — at varying
// worker counts, across repeated evict/reload churn. The "trial" runs
// collect garbage before every reload, so the evicted payload is gone
// and the reload maps the file; the "reuse" runs never collect, so
// every reload reinstalls the evicted payload — no mapping, no
// rebuild, and the residency of the original install.
func TestMMapReloadEquivalence(t *testing.T) {
	for run := 0; run < 8; run++ {
		trial, reuse := run%4, run >= 4
		name := fmt.Sprintf("trial%d", trial)
		if reuse {
			name = fmt.Sprintf("reuse%d", trial)
		}
		t.Run(name, func(t *testing.T) {
			if reuse {
				withoutGC(t)
			}
			seed := int64(1000 + trial)
			mk := func() *codec.Payload { return randomPayload(t, rand.New(rand.NewSource(seed))) }
			fill := func(i int) *codec.Payload {
				return randomPayload(t, rand.New(rand.NewSource(seed+int64(100+i))))
			}

			keep, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			mm, err := New(Config{MaxResident: 1, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			heap, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := New(Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			workers := 1 + trial%4
			for _, s := range []*Store{keep, mm} {
				if err := s.Put("main", mk(), workers); err != nil {
					t.Fatal(err)
				}
			}
			installed, err := mm.Describe("main")
			if err != nil {
				t.Fatal(err)
			}
			spilled, err := os.ReadFile(mm.spillPath("main"))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Store{heap, mapped} {
				if err := s.Ingest("main", bytes.NewReader(spilled)); err != nil {
					t.Fatal(err)
				}
			}
			qrnd := rand.New(rand.NewSource(seed ^ 0x5a5a))
			schema := mk().Schema
			qs := randomQueries(t, schema, qrnd, 25)

			relKeep, err := keep.Get("main")
			if err != nil {
				t.Fatal(err)
			}
			want := counts(t, relKeep, qs)

			// Several churn rounds: each filler Put evicts "main" from
			// mm and each Get brings it back; the ingested copies stay
			// resident throughout, one on the heap, one mapped.
			for round := 0; round < 3; round++ {
				if err := mm.Put(fmt.Sprintf("fill%d", round), fill(round), 1); err != nil {
					t.Fatal(err)
				}
				if !reuse {
					runtime.GC()
				}
				for si, s := range []*Store{mm, heap, mapped} {
					rel, err := s.Get("main")
					if err != nil {
						t.Fatal(err)
					}
					got := counts(t, rel, qs)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("round %d store %d query %d: reloaded answer %x != never-evicted %x",
								round, si, i, got[i], want[i])
						}
					}
				}
			}
			// Every load found a durable table: zero avoidable
			// prefix-sum builds in any store. The copy ingested
			// without a directory is all heap, the one ingested with
			// one all mapped.
			if st := heap.Stats(); st.Rebuilds != 0 || st.MMapHits != 0 || st.MappedBytes != 0 || st.HeapBytes == 0 {
				t.Fatalf("ingesting store Stats = %+v, want a heap-backed release and no rebuild", st)
			}
			if st := mapped.Stats(); st.Rebuilds != 0 || st.MMapHits != 0 || st.HeapBytes != 0 || st.MappedBytes == 0 {
				t.Fatalf("ingesting store with a directory Stats = %+v, want a mapped release and no rebuild", st)
			}
			st := mm.Stats()
			if !reuse {
				// The mmap store's evaluators came off the mapping.
				if st.Rebuilds != 0 || st.Reloads < 3 || st.MMapHits < 3 {
					t.Fatalf("mmap store Stats = %+v, want Rebuilds 0, >=3 Reloads and >=3 MMapHits", st)
				}
				return
			}
			// Every reload reinstalled the Put-time payload: the file
			// was never mapped, and the release sits exactly where its
			// install put it.
			if st.Rebuilds != 0 || st.Reloads < 3 || st.MMapHits != 0 {
				t.Fatalf("mmap store Stats = %+v, want Rebuilds 0, >=3 Reloads and 0 MMapHits", st)
			}
			stub, err := mm.Describe("main")
			if err != nil {
				t.Fatal(err)
			}
			if stub.HeapBytes != installed.HeapBytes || stub.MappedBytes != installed.MappedBytes {
				t.Fatalf("reused release residency heap %d mapped %d, want the install's %d/%d",
					stub.HeapBytes, stub.MappedBytes, installed.HeapBytes, installed.MappedBytes)
			}
		})
	}
}

// withoutGC turns the collector off for the rest of the test, so an
// evicted payload stays alive and the next reload deterministically
// reinstalls it.
func withoutGC(t *testing.T) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// TestSpillCorruptionFallsBackToRebuild damages a spilled release's
// table section — a flipped bit, then a truncated tail — and checks the
// load notices (checksum / bounds), quietly rebuilds from the intact
// matrix section, counts the rebuild, and still answers
// float64-identically. Both ways damaged bytes arrive are exercised:
// "mmap" reloads the damaged spill file through its mapping — after a
// collection, so the evicted payload is gone and the reload must read
// the file — and "nommap" ingests the damaged bytes from a reader into
// a heap-backed release, as a replication push or repair pull delivers
// them.
func TestSpillCorruptionFallsBackToRebuild(t *testing.T) {
	for _, name := range []string{"mmap", "nommap"} {
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{MaxResident: 1, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("x", testPayload(t, 7), 1); err != nil {
				t.Fatal(err)
			}
			rel, err := s.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			qs := probeQueries(t, rel.Payload.Schema)
			want := counts(t, rel, qs)

			damage := []struct {
				name string
				mut  func(raw []byte) []byte
			}{
				{"bitflip", func(raw []byte) []byte {
					raw[len(raw)-6] ^= 0x20 // inside crc/end trailer
					return raw
				}},
				{"truncated", func(raw []byte) []byte {
					return raw[:len(raw)-10]
				}},
			}
			for _, d := range damage {
				t.Run(d.name, func(t *testing.T) {
					if err := s.Put("fill-"+d.name, testPayload(t, 8), 1); err != nil {
						t.Fatal(err) // evicts x
					}
					raw, err := os.ReadFile(s.spillPath("x"))
					if err != nil {
						t.Fatal(err)
					}
					damaged := d.mut(append([]byte(nil), raw...))
					from, base := s, s.Stats().Rebuilds
					if name == "nommap" {
						if from, err = New(Config{}); err != nil {
							t.Fatal(err)
						}
						base = 0
						if err := from.Ingest("x", bytes.NewReader(damaged)); err != nil {
							t.Fatalf("ingesting %s bytes: %v", d.name, err)
						}
					} else {
						if err := os.WriteFile(s.spillPath("x"), damaged, 0o644); err != nil {
							t.Fatal(err)
						}
						runtime.GC()
					}
					rel2, err := from.Get("x")
					if err != nil {
						t.Fatalf("reload over %s spill: %v", d.name, err)
					}
					got := counts(t, rel2, qs)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("query %d after %s: %x != %x", i, d.name, got[i], want[i])
						}
					}
					if after := from.Stats().Rebuilds; after != base+1 {
						t.Fatalf("Rebuilds %d -> %d, want +1 (the fallback must be counted)", base, after)
					}
					// Restore the healthy file for the next damage case.
					if err := os.WriteFile(s.spillPath("x"), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestRebuildsFlatAcrossChurn is the acceptance check for the O(1)
// reload guarantee: a store churning v2 spill files through eviction
// and reload performs zero prefix-sum rebuilds, no matter how many
// cycles — every reload adopts the durable table. A collection before
// each Get drops the evicted payload, so every reload maps its file.
func TestRebuildsFlatAcrossChurn(t *testing.T) {
	s, err := New(Config{MaxResident: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testPayload(t, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", testPayload(t, 2), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for _, id := range []string{"a", "b"} {
			runtime.GC()
			if _, err := s.Get(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Reloads < 20 {
		t.Fatalf("churn produced only %d reloads", st.Reloads)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("Rebuilds = %d after %d reloads, want 0 (O(1) reload)", st.Rebuilds, st.Reloads)
	}
	if st.MMapHits < st.Reloads {
		t.Fatalf("MMapHits = %d < Reloads = %d, want every reload mapped", st.MMapHits, st.Reloads)
	}
}

// TestV1SpillRecovery replaces a spill file with the format-v1 encoding
// of the same release (what a pre-v2 node left on disk) and restarts: a
// new store must recover it from its header alone, then answer
// identically on the first Get, counting exactly the one rebuild the
// missing durable table forces there.
func TestV1SpillRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("old", testPayload(t, 11), 1); err != nil {
		t.Fatal(err)
	}
	rel, err := s1.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	qs := probeQueries(t, rel.Payload.Schema)
	want := counts(t, rel, qs)

	bare := *rel.Payload
	bare.Table, bare.Total = nil, 0
	var v1 bytes.Buffer
	if err := codec.Encode(&v1, &bare); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s1.spillPath("old"), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, MaxResident: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Rebuilds != 0 || st.MMapHits != 0 {
		t.Fatalf("after v1 recovery Stats = %+v, want 0 rebuilds, 0 mmap hits", st)
	}
	rel2, err := s2.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Rebuilds != 1 || st.MMapHits != 0 {
		t.Fatalf("after the first Get Stats = %+v, want exactly 1 rebuild, 0 mmap hits", st)
	}
	got := counts(t, rel2, qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d after v1 recovery: %x != %x", i, got[i], want[i])
		}
	}
}

// TestV1ReplicaKeepsSenderBytes: store A recovers a format-v1 spill
// file and exports it as it is (OpenSpill). Store B, with a directory,
// ingests those bytes and must keep them as its spill file, byte for
// byte, rebuilding only its in-memory table (one counted rebuild), as
// A does on each load of its own v1 file; both answer bit-equally.
func TestV1ReplicaKeepsSenderBytes(t *testing.T) {
	dirA := t.TempDir()
	var v1 bytes.Buffer
	if err := codec.Encode(&v1, testPayload(t, 41)); err != nil { // Table nil -> format v1
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, "old"+spillExt), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	relA, err := a.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.OpenSpill("old")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest("old", f); err != nil {
		t.Fatal(err)
	}
	sent, err := os.ReadFile(a.spillPath("old"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadFile(b.spillPath("old"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, sent) {
		t.Fatalf("replica spill file is %d bytes (version %d), the sender's %d (version %d)",
			len(kept), kept[4], len(sent), sent[4])
	}
	if st := b.Stats(); st.Rebuilds != 1 {
		t.Fatalf("replica Rebuilds = %d, want 1", st.Rebuilds)
	}
	relB, err := b.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	qs := probeQueries(t, relA.Payload.Schema)
	want, got := counts(t, relA, qs), counts(t, relB, qs)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: replica %x, sender %x", i, got[i], want[i])
		}
	}
}

// TestIngestVersions covers the replica-ingest matrix: v2 bytes adopt
// the shipped table (no rebuild), v1 bytes and tail-corrupted v2 bytes
// fall back to a counted rebuild — all three answering identically.
func TestIngestVersions(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 21)
	qs := probeQueries(t, p.Schema)
	wantEval := query.NewEvaluator(p.Noisy.Clone())

	var v1 bytes.Buffer
	if err := codec.Encode(&v1, p); err != nil { // Table nil -> format v1
		t.Fatal(err)
	}
	pre := p.Noisy.Clone()
	pre.PrefixSumExec(1)
	p.Table, p.Total = pre, p.Noisy.Total()
	var v2 bytes.Buffer
	if err := codec.Encode(&v2, p); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), v2.Bytes()...)
	corrupt[len(corrupt)-6] ^= 0x20

	cases := []struct {
		id       string
		raw      []byte
		rebuilds int64 // cumulative expectation after this ingest
	}{
		{"from-v2", v2.Bytes(), 0},
		{"from-v1", v1.Bytes(), 1},
		{"from-corrupt", corrupt, 2},
	}
	for _, c := range cases {
		if err := s.Ingest(c.id, bytes.NewReader(c.raw)); err != nil {
			t.Fatalf("Ingest(%s): %v", c.id, err)
		}
		if got := s.Stats().Rebuilds; got != c.rebuilds {
			t.Fatalf("after Ingest(%s): Rebuilds = %d, want %d", c.id, got, c.rebuilds)
		}
		rel, err := s.Get(c.id)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, err := wantEval.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rel.Eval.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Ingest(%s) query %d: %x != %x", c.id, i, got, want)
			}
		}
	}
}

// TestResidencyAccounting checks the heap/mapped byte split on Stats
// and Describe: a fresh Put is all heap, eviction zeroes both, a mapped
// reload after a collection ("mmap") is all file pages, a reload that
// reinstalls the still-live evicted payload ("reuse") keeps its
// install's split — all heap — without mapping or rebuilding anything.
// A copy ingested into a store with a directory ("ingest") is all file
// pages, like a reload: Ingest maps the spill file it streamed the
// bytes into. One ingested into a store without a directory ("nommap")
// is all heap — its sections alias the aligned read buffer.
func TestResidencyAccounting(t *testing.T) {
	// testPayload: 8 entries noisy + 8 entries table = 128 bytes.
	const wantBytes = 2 * 8 * 8
	for _, name := range []string{"mmap", "nommap", "ingest", "reuse"} {
		t.Run(name, func(t *testing.T) {
			if name == "reuse" {
				withoutGC(t)
			}
			s, err := New(Config{MaxResident: 1, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("a", testPayload(t, 1), 1); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.HeapBytes != wantBytes || st.MappedBytes != 0 {
				t.Fatalf("after Put: heap %d mapped %d, want %d/0", st.HeapBytes, st.MappedBytes, wantBytes)
			}
			if err := s.Put("b", testPayload(t, 2), 1); err != nil {
				t.Fatal(err) // evicts a
			}
			stub, err := s.Describe("a")
			if err != nil {
				t.Fatal(err)
			}
			if stub.Resident || stub.HeapBytes != 0 || stub.MappedBytes != 0 {
				t.Fatalf("evicted stub = %+v, want zero residency", stub)
			}
			id, from := "a", s
			switch name {
			case "nommap", "ingest":
				raw, err := os.ReadFile(s.spillPath("a"))
				if err != nil {
					t.Fatal(err)
				}
				id = "c"
				if name == "nommap" {
					if from, err = New(Config{}); err != nil {
						t.Fatal(err)
					}
				}
				if err := from.Ingest(id, bytes.NewReader(raw)); err != nil {
					t.Fatal(err) // with a directory, evicts b
				}
			case "mmap":
				runtime.GC()
				fallthrough
			default:
				if _, err := s.Get(id); err != nil {
					t.Fatal(err)
				}
			}
			stub, err = from.Describe(id)
			if err != nil {
				t.Fatal(err)
			}
			switch name {
			case "nommap":
				if stub.HeapBytes != wantBytes || stub.MappedBytes != 0 {
					t.Fatalf("ingested stub = %+v, want all heap", stub)
				}
			case "reuse":
				if stub.HeapBytes != wantBytes || stub.MappedBytes != 0 {
					t.Fatalf("reused stub = %+v, want the Put's all-heap split", stub)
				}
				if st := s.Stats(); st.Reloads != 1 || st.MMapHits != 0 || st.Rebuilds != 0 {
					t.Fatalf("after reuse Stats = %+v, want 1 reload, 0 mmap hits, 0 rebuilds", st)
				}
			default:
				if stub.MappedBytes != wantBytes || stub.HeapBytes != 0 {
					t.Fatalf("%s stub = %+v, want all mapped", name, stub)
				}
			}
			st := from.Stats()
			if st.HeapBytes != stub.HeapBytes || st.MappedBytes != stub.MappedBytes {
				t.Fatalf("Stats %+v disagrees with the lone resident stub %+v", st, stub)
			}
		})
	}
}

// TestDecodeReleaseMemoryBound pins DecodeRelease's memory to its
// input: a census-size format-v2 payload read from a plain io.Reader
// (no length known up front, like a replication push body) allocates
// at most 3× its encoded length, and the decoded payload retains
// exactly one buffer — the input's length rounded up to 8 — which both
// float64 sections alias.
func TestDecodeReleaseMemoryBound(t *testing.T) {
	dims := []int{64, 2, 64, 64} // 2¹⁹ entries: an 8 MiB v2 payload
	attrs := make([]dataset.Attribute, len(dims))
	for i, d := range dims {
		attrs[i] = dataset.OrdinalAttr(fmt.Sprintf("A%d", i), d)
	}
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.New(dims...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data() {
		m.Data()[i] = float64(i%89) - 40.5
	}
	pre := m.Clone()
	pre.PrefixSumExec(1)
	var buf bytes.Buffer
	if err := codec.Encode(&buf, &codec.Payload{Schema: schema, Noisy: m, Table: pre, Total: m.Total()}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	n := uint64(len(raw))

	// Two collections drain mmapfile's pool of staging chunks, which
	// survive one; what remains is what the payload itself retains.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := DecodeRelease(struct{ io.Reader }{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*n {
		t.Fatalf("decoding %d bytes allocated %d (> 3×)", n, alloc)
	}
	rounded := int64(n+7) / 8 * 8
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept < rounded || kept > rounded+64<<10 {
		t.Fatalf("decoded payload retains %d bytes, want one %d-byte buffer", kept, rounded)
	}
	noisy := uintptr(unsafe.Pointer(&p.Noisy.Data()[0]))
	table := uintptr(unsafe.Pointer(&p.Table.Data()[0]))
	if table <= noisy || table-noisy >= uintptr(n) {
		t.Fatal("matrix and table do not alias one input buffer")
	}
	runtime.KeepAlive(raw)
}
