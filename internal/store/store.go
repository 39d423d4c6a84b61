// Package store is the spillable release store behind the serving
// layer. The paper (§I, §III) frames a Privelet release as a
// publish-once artifact: the noisy frequency matrix M* is computed one
// time, spending the ε budget, and then answers arbitrarily many
// range-count queries forever after, so the store's hot path is one map
// lookup per query. Serving that model under multi-tenant traffic needs
// two properties:
//
//   - Publishes must not stall queries of unrelated releases. One
//     RWMutex guards every release and its files: it is held across a
//     rename, an empty marker write and an unlink (see Put and Remove),
//     but never across an encode, a decode, a reload or a publish, so
//     a query waits at most for one of those file operations.
//   - Memory must not grow without bound as tenants accumulate
//     releases. With a spill directory configured, every release is
//     written through to disk at Put time in the internal/codec format
//     (the same bytes Release.Save emits, and the bytes /export sends
//     straight from the file, see OpenSpill). A replica's copy is not
//     encoded again: Ingest streams the received bytes into its spill
//     file and serves them as a reload would (see Ingest).
//     When more than MaxResident releases are in memory the
//     least-recently-used ones drop their in-memory matrix and
//     evaluator, keeping only a weak reference to them. A later Get
//     reinstalls that payload if it is still alive (a query handle
//     holds it, or no GC has run since), and otherwise transparently
//     reloads from disk, with one of two outcomes: a format-v2 file is
//     memory-mapped and its persisted summed-area table serves queries
//     straight from the page cache, while a format-v1 file (or a v2
//     file whose table fails its checksum) rebuilds the table from the
//     matrix. Decode is bit-exact and the prefix-sum build is
//     deterministic, so a reloaded release answers every query
//     bit-identically to the original (store tests assert this).
//
// Because spill files are written through at Put time, the directory
// doubles as durable storage: a new Store opened on the same directory
// recovers every previously-published release and serves them after a
// daemon restart. Recovery reads only each file's header, so its cost
// follows the directory's file count, not its bytes: every recovered
// release starts evicted, and its first Get maps the file and verifies
// the table like any other reload.
//
// A small Stub per release — accounting metadata, attribute names,
// entry count — always stays resident, so listing and describing
// releases never touches disk.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/atomicfile"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/mmapfile"
	"repro/internal/query"
)

// DefaultAnswerCache is the per-release answer-cache entry bound the
// daemon runs with (cmd/priveletd). 64Ki entries ≈ a few
// MiB per hot release (key string + LRU node per entry) — room for 64Ki
// distinct /count queries, small next to the matrices the resident
// budget already accounts for.
const DefaultAnswerCache = 1 << 16

// spillExt is the filename extension of spill files; the payload bytes
// are exactly what cmd/privelet and the /export endpoint produce, so a
// spill file is itself a valid release artifact.
const spillExt = ".prvl"

// tombExt is the filename extension of tombstone markers: an empty file
// recording that the release under the flattened ID was deliberately
// deleted. Anti-entropy repair needs the distinction "never had it" vs
// "had it and deleted it" — without the marker, a replica that was down
// during a DELETE would resurrect its copy across the whole ring on the
// next repair sweep.
const tombExt = ".tomb"

// ErrNotFound is returned (wrapped) by Get and Describe when no release
// has the given ID. Callers should test with errors.Is.
var ErrNotFound = errors.New("store: release not found")

// ErrDuplicate is returned (wrapped) by Put and Ingest when the ID is
// already taken. Callers should test with errors.Is — the replication
// path treats it as success (releases are immutable, so an ID that
// exists already holds the same bytes), while a publish treats it as a
// caller bug.
var ErrDuplicate = errors.New("store: duplicate release")

// ErrDeleted is returned (wrapped) by Ingest when the ID carries a
// tombstone: the release was deliberately removed, and replication must
// not resurrect it. Only an explicit Put (a fresh publish reusing the
// ID) clears the tombstone. Callers should test with errors.Is.
var ErrDeleted = errors.New("store: release deleted")

// Config configures a Store.
type Config struct {
	// MaxResident bounds how many releases keep their matrix and
	// evaluator in memory; 0 means unlimited. A positive value requires
	// Dir, since eviction without a spill path would lose data.
	MaxResident int
	// Dir, when non-empty, is the spill/durability directory. Every Put
	// writes the release through to Dir, evicted releases reload from
	// it, and New recovers the releases already present in it.
	Dir string
	// Parallelism is the worker count for building a release's
	// prefix-sum evaluator where no durable table exists — a first
	// publish, a format-v1 spill file, a table that fails its checksum,
	// a table-less ingest; ≤ 0 means GOMAXPROCS. The build is
	// bit-identical at any worker count (matrix.PrefixSumExec), so this
	// only affects its latency.
	Parallelism int
	// AnswerCache, when positive, bounds a per-release LRU answer cache
	// (entry count) that the server's /count serves repeated range-count
	// queries from as memory lookups; streamed workloads bypass it.
	// Releases are immutable, so a cached answer can never go
	// stale; the cache lives and dies with its store entry — Remove
	// drops it (the only invalidation a release ever needs), while LRU
	// eviction keeps it (the cache is small and bounded; the matrix it
	// spares lookups into is neither). ≤ 0 disables caching.
	AnswerCache int
}

// Release is the resident view of a stored release, as returned by Get
// (by value, so the resident fast path never heap-allocates). The
// pointers remain valid (and immutable) even if the store evicts the
// release afterwards; eviction only drops the store's own references.
// This is what lets a batch execution (query.Batch) hold one Release
// across a whole 40k-query workload while the store churns: a handle
// obtained before, during, or after an evict/reload cycle answers every
// query bit-identically (float64 ==), since decode is bit-exact and the
// evaluator rebuild is deterministic — property-tested under concurrent
// churn in batch_test.go.
type Release struct {
	// ID is the store-wide release identifier.
	ID string
	// Payload carries the schema, noisy matrix and privacy accounting.
	Payload *codec.Payload
	// Eval answers range-count queries from the precomputed prefix-sum
	// table of the noisy matrix.
	Eval *query.Evaluator
	// Cache is the release's answer cache, nil when Config.AnswerCache
	// is off. It is bound to the store entry: the handle keeps working
	// after eviction, and Remove discards it with the entry, so a cache
	// can never serve answers for a withdrawn release (or for a new
	// release reusing the ID — that Put builds a fresh cache).
	Cache *query.AnswerCache
	// Workers is the publish-time parallelism — operational metadata
	// only (it never affects release values) and not persisted: a
	// release recovered from disk or ingested as a replica reads 0.
	Workers int
}

// Stub is the always-resident summary of a release; List and Describe
// return it without touching disk even for spilled releases.
type Stub struct {
	// ID is the store-wide release identifier.
	ID string
	// Meta is the privacy accounting carried alongside the release.
	Meta codec.Meta
	// Attrs lists the schema's attribute names in order.
	Attrs []string
	// Entries is the number of frequency-matrix entries.
	Entries int
	// Workers is the publish-time parallelism (see Release.Workers).
	Workers int
	// Resident reports whether the release currently holds its matrix
	// and evaluator in memory.
	Resident bool
	// HeapBytes and MappedBytes split the release's resident float64
	// backing (noisy matrix + summed-area table) between process heap
	// and memory-mapped spill-file pages. Both are zero while the
	// release is not resident; a mapped release's MappedBytes is an
	// upper bound — actual residency is the pages queries have touched,
	// and the kernel reclaims them under pressure.
	HeapBytes   int64
	MappedBytes int64
}

// Stats is a snapshot of the store's accounting, surfaced by the
// daemon's /stats endpoint. The AnswerCache* counters aggregate over
// every release's answer cache (hits/misses/evictions keep counting
// across release removals; Entries is the current total). On a daemon
// they count /count lookups only, since workloads bypass the cache.
type Stats struct {
	MaxResident int   `json:"max_resident"`
	Releases    int   `json:"releases"`
	Resident    int   `json:"resident"`
	Spilled     int   `json:"spilled"`
	Evictions   int64 `json:"evictions"`
	Reloads     int64 `json:"reloads"`
	Removals    int64 `json:"removals"`
	// Reloads counts every evicted→resident transition, however the
	// payload came back; a recovered release's first Get is one. MMapHits
	// counts only reloads that mapped a file and built their evaluator
	// over its summed-area table; Rebuilds counts loads that had to
	// re-run the prefix-sum build because no usable durable table
	// existed (format-v1 file, failed checksum, or a table-less ingest).
	// A reload that reinstalls its evicted payload, still alive, counts
	// in neither, so reuses are Reloads − MMapHits − Rebuilds, net of
	// ingest. A store serving v2 spill files keeps
	// Rebuilds flat across evict/reload churn — that flatness is the
	// O(1)-reload guarantee, asserted in tests.
	MMapHits int64 `json:"mmap_hits"`
	Rebuilds int64 `json:"rebuilds"`
	// MappedBytes/HeapBytes aggregate the per-release residency split
	// (see Stub.MappedBytes) over every resident release.
	MappedBytes          int64 `json:"mapped_bytes"`
	HeapBytes            int64 `json:"heap_bytes"`
	Tombstones           int   `json:"tombstones"`
	AnswerCacheMax       int   `json:"answer_cache_max"`
	AnswerCacheEntries   int   `json:"answer_cache_entries"`
	AnswerCacheHits      int64 `json:"answer_cache_hits"`
	AnswerCacheMisses    int64 `json:"answer_cache_misses"`
	AnswerCacheEvictions int64 `json:"answer_cache_evictions"`
}

// Store is a spillable release store. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	// mu guards entries, tombs and resident, each entry's payload, eval,
	// info and spare, and the files in Dir: an entry is inserted with its
	// spill file's rename and deleted with its marker write and unlink.
	// It is never held across an encode, decode, reload or publish.
	mu      sync.RWMutex
	entries map[string]*entry
	// tombs is the set of deliberately deleted release IDs (see tombExt).
	tombs map[string]struct{}
	// resident counts releases currently holding payload + evaluator.
	resident int

	// clock is a global logical clock; entries stamp themselves with it
	// on every access, giving the LRU order without taking the write
	// lock on the read path.
	clock     atomic.Int64
	evictions atomic.Int64
	reloads   atomic.Int64
	removals  atomic.Int64
	mmapHits  atomic.Int64
	rebuilds  atomic.Int64
	// cacheCtr aggregates answer-cache traffic across every release's
	// cache, so /stats totals survive individual release removal.
	cacheCtr query.CacheCounters
}

// entry is one stored release. stub/workers are immutable after insert;
// payload, eval, info and spare are guarded by Store.mu; payload/eval
// are nil while the release is not resident. With a Dir, an entry's
// spill file exists for as long as the entry is in the map.
type entry struct {
	id       string
	stub     Stub
	lastUsed atomic.Int64
	// cache is the entry's answer cache (nil when disabled), immutable
	// after insert like stub: eviction keeps it, Remove discards it.
	cache *query.AnswerCache
	// ioMu serializes reloads, so a hot spilled release is decoded once,
	// not once per waiting goroutine.
	ioMu sync.Mutex

	payload *codec.Payload
	eval    *query.Evaluator
	// info is the MapInfo payload (or, while evicted, spare) was decoded
	// with; residency derives the heap/mapped split from it.
	info codec.MapInfo
	// spare weakly references the payload eviction dropped. While
	// something else keeps it alive — a query handle, or simply no GC
	// cycle since — reload reinstalls it instead of mapping and
	// checksumming the file again; once it is collected, the mapping's
	// finalizer unmaps it. It lives on the entry, so a Remove and a Put
	// of the same ID, and a recovered entry, start without one.
	spare weak.Pointer[codec.Payload]
}

// New builds a store. With cfg.Dir set it creates the directory if
// needed and recovers every readable *.prvl release already in it (see
// recover for what is read and the corrupt-file policy).
func New(cfg Config) (*Store, error) {
	if cfg.MaxResident > 0 && cfg.Dir == "" {
		return nil, fmt.Errorf("store: MaxResident %d requires a spill Dir", cfg.MaxResident)
	}
	s := &Store{cfg: cfg, entries: make(map[string]*entry), tombs: make(map[string]struct{})}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recover registers every spill file in cfg.Dir as an evicted entry
// built from the file's header alone (codec.DecodeHeader): the meta and
// schema are all its Stub holds, and decoding them touches only the
// header's pages of the mapping. The table is neither read nor
// checksummed here; the entry's first Get reloads it (see reload),
// which verifies it and falls back to a counted rebuild, so a damaged
// table surfaces there and never as a wrong answer. A file whose header
// does not decode, or whose matrix section is shorter than declared, is
// skipped with a warning — one corrupt release must not take down
// serving for every healthy one. recover runs before New shares the
// store, so it fills the maps without mu.
func (s *Store) recover() error {
	dirents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.cfg.Dir, err)
	}
	// Tombstones first: a spill file whose ID is tombstoned is an orphan
	// from a crash between Remove's marker write and its unlink, or
	// between a reusing Put's rename and its marker unlink — the marker
	// wins (the delete was acknowledged, the Put was not), and the orphan
	// is swept rather than resurrected.
	for _, d := range dirents {
		name := d.Name()
		if d.IsDir() || !strings.HasSuffix(name, tombExt) {
			continue
		}
		id := spillID(strings.TrimSuffix(name, tombExt))
		if validateID(id) != nil {
			continue // not one of ours
		}
		s.tombs[id] = struct{}{}
	}
	for _, d := range dirents {
		name := d.Name()
		if d.IsDir() {
			continue
		}
		// A crash after a Put staged its spill file, or mid-marker write,
		// can strand a temp file; sweep it now — recovery runs before the
		// store serves, so nothing is writing.
		if atomicfile.IsTemp(name, spillExt) || atomicfile.IsTemp(name, tombExt) {
			os.Remove(filepath.Join(s.cfg.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, spillExt) {
			continue
		}
		id := spillID(strings.TrimSuffix(name, spillExt))
		if validateID(id) != nil {
			continue // not one of ours
		}
		if _, dead := s.tombs[id]; dead {
			os.Remove(filepath.Join(s.cfg.Dir, name))
			continue
		}
		meta, schema, err := s.loadHeader(id)
		if err != nil {
			log.Printf("store: skipping unreadable spill file %s: %v", name, err)
			continue
		}
		s.entries[id] = &entry{id: id, stub: makeStub(id, meta, schema, 0), cache: s.newAnswerCache()}
	}
	return nil
}

// Put stores a release under id, which must be unique for the lifetime
// of the store's directory. Reusing an ID is a caller bug and is
// rejected — atomically, so racing duplicate Puts cannot clobber each
// other's spill file: each encodes into a temporary file of its own
// before taking the store lock, and only the one that finds the ID free
// under it renames its file into place and inserts the entry, in one
// critical section. So every entry has a file to reload from, and a
// Put whose encode or rename fails stores nothing.
//
// Put adopts p: when p arrives table-less it populates p.Table/p.Total
// with the evaluator's summed-area table before the encode, so every
// spill file is written in format v2 and later reloads pay zero
// prefix-sum work.
func (s *Store) Put(id string, p *codec.Payload, workers int) error {
	if err := validateID(id); err != nil {
		return err
	}
	if p == nil || p.Schema == nil || p.Noisy == nil {
		return fmt.Errorf("store: nil payload components for %q", id)
	}
	return s.put(id, p, codec.MapInfo{}, workers, "", false)
}

// put is Put, and with ingest set the tail of Ingest. info says which
// of p's sections are mapped. tmp is a spill file the caller already
// staged for p, the bytes an ingested copy arrived as; otherwise, with
// a Dir, put encodes one before taking the store lock. insert does the
// rest under it.
func (s *Store) put(id string, p *codec.Payload, info codec.MapInfo, workers int, tmp string, ingest bool) error {
	e := &entry{
		id:      id,
		stub:    makeStub(id, p.Meta, p.Schema, workers),
		payload: p,
		eval:    s.evaluatorFor(p, false),
		info:    info,
		cache:   s.newAnswerCache(),
	}
	e.touch(s)
	if tmp == "" && s.cfg.Dir != "" {
		var err error
		if tmp, err = atomicfile.Stage(s.spillPath(id), func(w io.Writer) error { return EncodeRelease(w, p) }); err != nil {
			return fmt.Errorf("store: spilling %q: %w", id, err)
		}
	}
	s.mu.Lock()
	err := s.insert(e, tmp, ingest)
	s.mu.Unlock()
	if err != nil && tmp != "" {
		os.Remove(tmp)
	}
	return err
}

// insert renames the staged spill file tmp (empty without a Dir) into
// place and adds e, unless e's ID is taken or, for an ingest,
// tombstoned: checking and inserting in one critical section means a
// Remove can never land between the two. Only a Put clears the
// tombstone. Caller holds s.mu for writing.
func (s *Store) insert(e *entry, tmp string, ingest bool) error {
	id := e.id
	if _, dup := s.entries[id]; dup {
		return fmt.Errorf("store: release %q: %w", id, ErrDuplicate)
	}
	_, dead := s.tombs[id]
	if dead && ingest {
		return fmt.Errorf("store: ingesting %q: %w", id, ErrDeleted)
	}
	if tmp != "" {
		if err := os.Rename(tmp, s.spillPath(id)); err != nil {
			return fmt.Errorf("store: spilling %q: %w", id, err)
		}
	}
	// A fresh publish reusing a deleted ID clears the tombstone, its
	// marker after the rename: a crash between the two leaves both
	// files, and recovery keeps the acknowledged delete over the Put
	// that never returned.
	if dead {
		delete(s.tombs, id)
		if tmp != "" {
			os.Remove(s.tombPath(id))
		}
	}
	s.entries[id] = e
	s.resident++
	s.enforceBudget()
	return nil
}

// Remove deletes the release under id: in one critical section it is
// withdrawn from serving, its tombstone marker is written and its spill
// file (if any) unlinked, so no file operation of the delete can land
// on a Put that reuses the ID. Removal is terminal even on error: once
// Remove returns, the ID is free (a non-nil error means only that the
// spill file may linger; recovery sweeps it when the marker was
// written, and otherwise re-registers it, so callers should retry the
// Remove then). Returns an error wrapping ErrNotFound for unknown IDs.
//
// Concurrent readers are safe: a Get holding the Release keeps valid
// pointers (removal only drops the store's references), and a Get racing
// the removal either completes first or reports ErrNotFound.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[id]
	if e == nil {
		return fmt.Errorf("store: %q: %w", id, ErrNotFound)
	}
	delete(s.entries, id)
	if e.payload != nil {
		s.resident--
	}
	// The tombstone goes in with the delete, so no Ingest can insert the
	// ID before it exists.
	s.tombs[id] = struct{}{}
	s.removals.Add(1)
	if s.cfg.Dir == "" {
		return nil
	}
	// Marker before the spill unlink: if the process dies between the
	// two, recovery finds marker + file and finishes the delete instead of
	// resurrecting the release. Repair sweeps read the marker to propagate
	// the delete to replicas that were down when it happened. The write
	// is best-effort: a failed one costs at worst one resurrection after
	// a restart, which the next DELETE fixes.
	if err := atomicfile.Write(s.tombPath(id), func(io.Writer) error { return nil }); err != nil {
		log.Printf("store: writing tombstone for %q: %v", id, err)
	}
	if err := os.Remove(s.spillPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing spill file of %q: %w", id, err)
	}
	return nil
}

// Get returns the release under id, transparently reloading it if it
// was evicted (see reload).
// Returns an error wrapping ErrNotFound for unknown IDs. The Release is
// returned by value so the resident fast path stays allocation-free.
func (s *Store) Get(id string) (Release, error) {
	s.mu.RLock()
	e := s.entries[id]
	var rel Release
	if e != nil && e.payload != nil {
		rel = e.release()
	}
	s.mu.RUnlock()
	if e == nil {
		return Release{}, fmt.Errorf("store: %q: %w", id, ErrNotFound)
	}
	if rel.Payload != nil {
		e.touch(s)
		return rel, nil
	}
	return s.reload(e)
}

// OpenSpill opens the spill file of the release under id for reading:
// the release's bytes exactly as Put or Ingest wrote them, which is
// what the /export endpoint sends. The open happens under the read
// lock, so no Remove can unlink the file between the lookup and the
// open; once open, the file stays readable even if a Remove unlinks it.
// It touches neither residency nor the LRU order. A store without a Dir
// has no files and returns a nil file. Returns an error wrapping
// ErrNotFound for unknown IDs.
func (s *Store) OpenSpill(id string) (*os.File, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.entries[id] == nil {
		return nil, fmt.Errorf("store: %q: %w", id, ErrNotFound)
	}
	if s.cfg.Dir == "" {
		return nil, nil
	}
	return os.Open(s.spillPath(id))
}

// Describe returns the release's always-resident summary without
// loading a spilled release.
func (s *Store) Describe(id string) (Stub, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.entries[id]
	if e == nil {
		return Stub{}, fmt.Errorf("store: %q: %w", id, ErrNotFound)
	}
	return e.summary(), nil
}

// List returns every release's summary in CompareIDs order. It never
// touches disk.
func (s *Store) List() []Stub { return s.ListPrefix("") }

// ListPrefix returns the summaries of releases whose ID starts with
// prefix, with List's ordering — under the "<tenant>/<epoch>" ID
// scheme, ListPrefix("alice/") is tenant alice's epoch list (the
// shortest-first order ranks epochs numerically). Like List it never
// touches disk, so enumerating a tenant's epochs cannot thrash the
// resident budget.
func (s *Store) ListPrefix(prefix string) []Stub {
	var out []Stub
	s.mu.RLock()
	for id, e := range s.entries {
		if strings.HasPrefix(id, prefix) {
			out = append(out, e.summary())
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Stub) int { return CompareIDs(a.ID, b.ID) })
	return out
}

// IDs returns every stored release ID in CompareIDs order without
// copying the stubs — the cheap placement listing an anti-entropy sweep
// diffs against the ring.
func (s *Store) IDs() []string {
	s.mu.RLock()
	out := slices.Collect(maps.Keys(s.entries))
	s.mu.RUnlock()
	slices.SortFunc(out, CompareIDs)
	return out
}

// Tombstones returns the deleted release IDs in CompareIDs order — what
// a repair sweep propagates to replicas that missed the DELETE.
func (s *Store) Tombstones() []string {
	s.mu.RLock()
	out := slices.Collect(maps.Keys(s.tombs))
	s.mu.RUnlock()
	slices.SortFunc(out, CompareIDs)
	return out
}

// CompareIDs orders release IDs shortest first, then lexicographically,
// so r2 sorts before r10 and a tenant's epochs sort numerically. It is
// the order of List, IDs and Tombstones, and of the cluster router's
// merged listing.
func CompareIDs(a, b string) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

func (s *Store) tombPath(id string) string {
	return filepath.Join(s.cfg.Dir, spillName(id)+tombExt)
}

// Len returns the number of stored releases, resident or spilled.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cached := 0
	var mappedB, heapB int64
	for _, e := range s.entries {
		if s.cfg.AnswerCache > 0 {
			cached += e.cache.Len()
		}
		h, m := e.residency()
		heapB += h
		mappedB += m
	}
	return Stats{
		MaxResident:          s.cfg.MaxResident,
		Releases:             len(s.entries),
		Resident:             s.resident,
		Spilled:              len(s.entries) - s.resident,
		Evictions:            s.evictions.Load(),
		Reloads:              s.reloads.Load(),
		Removals:             s.removals.Load(),
		MMapHits:             s.mmapHits.Load(),
		Rebuilds:             s.rebuilds.Load(),
		MappedBytes:          mappedB,
		HeapBytes:            heapB,
		Tombstones:           len(s.tombs),
		AnswerCacheMax:       max(s.cfg.AnswerCache, 0),
		AnswerCacheEntries:   cached,
		AnswerCacheHits:      s.cacheCtr.Hits.Load(),
		AnswerCacheMisses:    s.cacheCtr.Misses.Load(),
		AnswerCacheEvictions: s.cacheCtr.Evictions.Load(),
	}
}

// newAnswerCache builds one release's answer cache under the store's
// shared counters; nil (caching off) when the config disables it.
func (s *Store) newAnswerCache() *query.AnswerCache {
	return query.NewAnswerCache(s.cfg.AnswerCache, &s.cacheCtr)
}

// reload brings a spilled entry back into memory. If the payload
// eviction dropped is still alive, reload reinstalls it: the same bytes,
// verified when they were first loaded, that a never-evicted release
// keeps serving — no mmap, no decode, no checksum pass and no second
// mapping of the file. Otherwise it loads the spill file. ioMu makes
// concurrent Gets of the same release load it once.
func (s *Store) reload(e *entry) (Release, error) {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	// Another goroutine may have finished the reload — or a Remove may
	// have deleted the release — while we waited.
	s.mu.RLock()
	if s.entries[e.id] != e {
		s.mu.RUnlock()
		return Release{}, fmt.Errorf("store: %q: %w", e.id, ErrNotFound)
	}
	if e.payload != nil {
		rel := e.release()
		s.mu.RUnlock()
		e.touch(s)
		return rel, nil
	}
	p, info := e.spare.Value(), e.info
	s.mu.RUnlock()
	if p == nil {
		var err error
		p, info, err = s.loadPayload(s.spillPath(e.id))
		switch {
		case os.IsNotExist(err):
			// Remove won the race after our membership check and took
			// the spill file with it.
			return Release{}, fmt.Errorf("store: %q: %w", e.id, ErrNotFound)
		case errors.Is(err, codec.ErrTable):
			log.Printf("store: %q: durable table unusable, rebuilding: %v", e.id, err)
		case err != nil:
			return Release{}, fmt.Errorf("store: reloading %q: %w", e.id, err)
		}
		if info.Table {
			s.mmapHits.Add(1)
		}
	}
	eval := s.evaluatorFor(p, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[e.id] != e {
		// Removed between the read and the install: do not resurrect the
		// payload on a dead entry (the resident count no longer tracks it).
		return Release{}, fmt.Errorf("store: %q: %w", e.id, ErrNotFound)
	}
	e.payload, e.eval, e.info = p, eval, info
	e.touch(s)
	s.resident++
	s.reloads.Add(1)
	rel := e.release()
	s.enforceBudget()
	return rel, nil
}

// enforceBudget evicts least-recently-used releases until the resident
// count is back under MaxResident, or no evictable release is left.
// Caller holds s.mu for writing.
func (s *Store) enforceBudget() {
	for s.cfg.MaxResident > 0 && s.resident > s.cfg.MaxResident && s.evictOne() {
	}
}

// evictOne drops the in-memory copy of the least-recently-used resident
// release, keeping only a weak reference (entry.spare); callers holding
// its Release keep it. Eviction needs a Dir, so the entry has its spill
// file to reload from. Returns false when no release is resident.
// Caller holds s.mu for writing, so the scan and the drop are one step:
// no entry can be reloaded, removed or evicted by someone else in
// between.
func (s *Store) evictOne() bool {
	var victim *entry
	best := int64(math.MaxInt64)
	for _, e := range s.entries {
		if e.payload == nil {
			continue
		}
		if t := e.lastUsed.Load(); t < best {
			best, victim = t, e
		}
	}
	if victim == nil {
		return false
	}
	victim.spare = weak.Make(victim.payload)
	victim.payload, victim.eval = nil, nil
	s.resident--
	s.evictions.Add(1)
	return true
}

// release is the entry's resident view. Caller holds s.mu.
func (e *entry) release() Release {
	return Release{ID: e.id, Payload: e.payload, Eval: e.eval, Cache: e.cache, Workers: e.stub.Workers}
}

// touch stamps the entry with the global LRU clock. With eviction
// disabled (MaxResident ≤ 0) the stamps would never be read, so the
// read path skips the shared atomic entirely — otherwise every Get
// would bounce one cache line between cores.
func (e *entry) touch(s *Store) {
	if s.cfg.MaxResident <= 0 {
		return
	}
	e.lastUsed.Store(s.clock.Add(1))
}

func makeStub(id string, meta codec.Meta, schema *dataset.Schema, workers int) Stub {
	return Stub{
		ID:      id,
		Meta:    meta,
		Attrs:   schema.Names(),
		Entries: schema.DomainSize(),
		Workers: workers,
	}
}

// ValidateID reports whether id is a storable release ID (see
// validateID for the grammar) — exported so the serving layer can
// refuse a client-chosen or replicated ID before any work is done.
func ValidateID(id string) error { return validateID(id) }

// validateID keeps IDs safe to embed in spill filenames: one or two
// '/'-separated segments (the two-segment form is the continual-
// publication "<tenant>/<epoch>" scheme), ≤ 128 bytes overall, each
// segment non-empty, not starting with '.', alphanumerics plus '.',
// '_', '-'. The '/' never reaches the filesystem — spillPath flattens
// it to '~', a byte the segment grammar excludes, so the mapping is
// injective and a tenant's epochs can never collide with a plain
// release's file.
func validateID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("store: invalid release id %q", id)
	}
	seen := 0
	for seg := range strings.SplitSeq(id, "/") {
		if seen++; seen > 2 {
			return fmt.Errorf("store: invalid release id %q (at most one '/')", id)
		}
		if seg == "" || seg[0] == '.' {
			return fmt.Errorf("store: invalid release id %q", id)
		}
		for i := 0; i < len(seg); i++ {
			c := seg[i]
			switch {
			case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
				c == '.', c == '_', c == '-':
			default:
				return fmt.Errorf("store: invalid release id %q", id)
			}
		}
	}
	return nil
}

// spillName flattens a release ID to its spill filename stem (see
// validateID for why '~'); spillID inverts it.
func spillName(id string) string { return strings.ReplaceAll(id, "/", "~") }
func spillID(name string) string { return strings.ReplaceAll(name, "~", "/") }

func (s *Store) spillPath(id string) string {
	return filepath.Join(s.cfg.Dir, spillName(id)+spillExt)
}

// loadHeader decodes only the header of id's spill file. mmapfile maps
// the file (or, where mapping is unavailable, reads it whole), and the
// header decode faults in just the pages it reads; the mapping is
// dropped on return and unmapped by its finalizer.
func (s *Store) loadHeader(id string) (codec.Meta, *dataset.Schema, error) {
	f, err := mmapfile.Open(s.spillPath(id))
	if err != nil {
		return codec.Meta{}, nil, err
	}
	// f's finalizer must not unmap the pages while the decode reads them.
	defer runtime.KeepAlive(f)
	return codec.DecodeHeader(f.Data())
}

// loadPayload reads a spill file — a release's own, or the staged copy
// an Ingest is about to register — through mmapfile and the codec's one
// decoder, DecodeMapped. A format-v2 file loads with its float64
// sections as views over page-cache-backed file pages (the MapInfo says
// which) — no decode work and no prefix-sum rebuild. A format-v1 file
// comes back table-less, and a v2 file whose durable table fails its
// checksum comes back table-less with an error wrapping codec.ErrTable;
// either way the caller rebuilds the table from the intact matrix,
// counted in the rebuilds stat. Where mmapfile had to fall back to a
// heap read, MapInfo is cleared so residency and the mmap-hit stat
// report heap, not mapped, bytes.
func (s *Store) loadPayload(path string) (*codec.Payload, codec.MapInfo, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, codec.MapInfo{}, err
	}
	p, info, err := codec.DecodeMapped(f.Data(), f)
	if !f.Mapped() {
		info = codec.MapInfo{}
	}
	return p, info, err
}

// evaluatorFor returns p's evaluator: free (query.NewEvaluatorFromTable)
// when p carries its durable summed-area table, a prefix-sum rebuild
// otherwise — in which case the rebuilt table is written back into p,
// so a later /export or replication of this payload ships format v2.
// countRebuild marks the avoidable builds (reload, recovery, ingest);
// first-publish builds pass false, keeping the rebuilds stat a pure
// measure of work the durable table should have saved.
func (s *Store) evaluatorFor(p *codec.Payload, countRebuild bool) *query.Evaluator {
	if p.Table != nil {
		return query.NewEvaluatorFromTable(p.Table, p.Total)
	}
	eval := query.NewEvaluatorWorkers(p.Noisy, s.cfg.Parallelism)
	p.Table, p.Total = eval.Prefix(), eval.Total()
	if countRebuild {
		s.rebuilds.Add(1)
	}
	return eval
}

// summary is the entry's Stub with its current residency. Caller holds
// s.mu.
func (e *entry) summary() Stub {
	st := e.stub
	st.Resident = e.payload != nil
	st.HeapBytes, st.MappedBytes = e.residency()
	return st
}

// residency splits the resident payload's float64 backing between heap
// and mapped file pages, per the decode's MapInfo; zero while not
// resident. Caller holds s.mu.
func (e *entry) residency() (heap, mapped int64) {
	if e.payload == nil {
		return 0, 0
	}
	n := int64(e.payload.Noisy.Len()) * 8
	if e.info.Noisy {
		mapped += n
	} else {
		heap += n
	}
	if e.payload.Table != nil {
		if e.info.Table {
			mapped += n
		} else {
			heap += n
		}
	}
	return heap, mapped
}
