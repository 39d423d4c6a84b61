package store

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/query"
)

// The benchmarks compare the store against the single-RWMutex map
// internal/server used before the store existed, under the serving
// pattern the ROADMAP targets: 8 tenants, each querying its own release
// with an occasional publish mixed in. Both take one read lock per Get;
// the gap between them is the store's own bookkeeping. The spilling
// input turns eviction on (a spill Dir and a MaxResident above the
// tenant count, the configuration of every daemon run with
// -max-resident), so each Get also stamps the global LRU clock. Run
// with -cpu 1,2 (or higher on a bigger box) to see how contention on
// the lock word and the clock grows with cores.

// releaseStore is the narrow interface both implementations serve.
type releaseStore interface {
	Put(id string, p *codec.Payload, workers int) error
	Get(id string) (Release, error)
}

// mutexStore is the pre-store design: one map, one RWMutex.
type mutexStore struct {
	mu sync.RWMutex
	m  map[string]*Release
}

func newMutexStore() *mutexStore { return &mutexStore{m: make(map[string]*Release)} }

func (s *mutexStore) Put(id string, p *codec.Payload, workers int) error {
	rel := &Release{ID: id, Payload: p, Eval: query.NewEvaluator(p.Noisy), Workers: workers}
	s.mu.Lock()
	s.m[id] = rel
	s.mu.Unlock()
	return nil
}

func (s *mutexStore) Get(id string) (Release, error) {
	s.mu.RLock()
	rel := s.m[id]
	s.mu.RUnlock()
	if rel == nil {
		return Release{}, ErrNotFound
	}
	return *rel, nil
}

const benchTenants = 8

// seedTenants publishes one release per tenant and returns the probe
// query used by the read path.
func seedTenants(b *testing.B, s releaseStore) query.Query {
	b.Helper()
	var q query.Query
	for tenant := 0; tenant < benchTenants; tenant++ {
		p := testPayload(b, uint64(tenant))
		if err := s.Put(fmt.Sprintf("tenant%d", tenant), p, 1); err != nil {
			b.Fatal(err)
		}
		if tenant == 0 {
			q = probeQueries(b, p.Schema)[1]
		}
	}
	return q
}

// benchQueries: pure read traffic, each goroutine pinned to one tenant.
func benchQueries(b *testing.B, s releaseStore) {
	q := seedTenants(b, s)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tenant := int(next.Add(1)-1) % benchTenants
		id := fmt.Sprintf("tenant%d", tenant)
		for pb.Next() {
			rel, err := s.Get(id)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := rel.Eval.Count(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchMixed: 1 publish per 64 queries — the write rate at which a
// global mutex starts stalling unrelated tenants.
func benchMixed(b *testing.B, s releaseStore) {
	q := seedTenants(b, s)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tenant := int(next.Add(1)-1) % benchTenants
		id := fmt.Sprintf("tenant%d", tenant)
		seq := 0
		for pb.Next() {
			seq++
			if seq%64 == 0 {
				fresh := fmt.Sprintf("tenant%d-v%d-%d", tenant, seq, next.Add(1))
				if err := s.Put(fresh, testPayload(b, uint64(seq)), 1); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			rel, err := s.Get(id)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := rel.Eval.Count(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func newStoreForBench(b *testing.B, cfg Config) *Store {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkQueries8TenantsStore(b *testing.B) { benchQueries(b, newStoreForBench(b, Config{})) }

func BenchmarkQueries8TenantsStoreSpilling(b *testing.B) {
	benchQueries(b, newStoreForBench(b, Config{Dir: b.TempDir(), MaxResident: 2 * benchTenants}))
}

func BenchmarkQueries8TenantsSingleMutex(b *testing.B) { benchQueries(b, newMutexStore()) }

func BenchmarkMixed8TenantsStore(b *testing.B) { benchMixed(b, newStoreForBench(b, Config{})) }

func BenchmarkMixed8TenantsSingleMutex(b *testing.B) { benchMixed(b, newMutexStore()) }

// --- reload time-to-first-query -----------------------------------------
//
// The mmap tentpole's headline number: how long from Get() on a spilled
// release to its first answered query. The two reload outcomes:
//
//   Mapped  — format v2, memory-mapped: the evaluator is constructed
//             directly over the file's summed-area table; the only
//             per-reload work is decoding the (tiny) header.
//   Rebuild — format v1 (the pre-v2 on-disk state): decode plus a full
//             prefix-sum rebuild — what every reload cost before.
//
// Eviction between iterations is excluded from the timing via
// StopTimer, so ns/op is purely reload + one Count.

// bigBenchPayload builds a single-attribute release with n matrix
// entries — large enough that decode and prefix-sum work dominate the
// reload, as they do for production-sized releases.
func bigBenchPayload(b *testing.B, n int) *codec.Payload {
	b.Helper()
	schema, err := dataset.NewSchema(dataset.OrdinalAttr("V", n))
	if err != nil {
		b.Fatal(err)
	}
	m, err := matrix.New(n)
	if err != nil {
		b.Fatal(err)
	}
	data := m.Data()
	for i := range data {
		data[i] = float64(i%97) * 0.5
	}
	return &codec.Payload{
		Meta:   codec.Meta{Mechanism: "privelet+", Epsilon: 1, Rho: 2, Lambda: 4, Bound: 8},
		Schema: schema,
		Noisy:  m,
	}
}

// downgradeSpill rewrites id's spill file in format v1 (no table),
// recreating what a pre-v2 node left on disk.
func downgradeSpill(b *testing.B, s *Store, id string) {
	b.Helper()
	raw, err := os.ReadFile(s.spillPath(id))
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := codec.DecodeMapped(raw, nil)
	if err != nil {
		b.Fatal(err)
	}
	p.Table, p.Total = nil, 0
	var buf bytes.Buffer
	if err := codec.Encode(&buf, p); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(s.spillPath(id), buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
}

func benchmarkReloadTTFQ(b *testing.B, v1 bool) {
	const entries = 1 << 18
	s, err := New(Config{MaxResident: 1, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	p := bigBenchPayload(b, entries)
	if err := s.Put("big", p, 1); err != nil {
		b.Fatal(err)
	}
	q, err := query.NewBuilder(p.Schema).Range("V", 100, entries-100).Build()
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("fill0", testPayload(b, 0), 1); err != nil {
		b.Fatal(err) // evicts big
	}
	if v1 {
		downgradeSpill(b, s, "big")
	}
	// Each Get must read the file: a collection after every eviction
	// drops the evicted payload, which a reload would otherwise reinstall.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := s.Get("big")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Eval.Count(q); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Put(fmt.Sprintf("fill%d", i+1), testPayload(b, uint64(i)), 1); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
	}
}

func BenchmarkReloadTTFQMapped(b *testing.B)  { benchmarkReloadTTFQ(b, false) }
func BenchmarkReloadTTFQRebuild(b *testing.B) { benchmarkReloadTTFQ(b, true) }

// --- restart recovery ----------------------------------------------------
//
// New() over a directory of 64 format-v2 spill files, a quarter of them
// within MaxResident, at two release sizes. Recovery reads each file's
// header only, so its time should not grow with the release size; the
// first reads it defers are what BenchmarkReloadTTFQ{Mapped,Rebuild}
// measure.

func BenchmarkRecovery(b *testing.B) {
	const files = 64
	for _, size := range []struct {
		name    string
		entries int
	}{{"1Ki", 1 << 10}, {"64Ki", 1 << 16}} {
		b.Run(size.name, func(b *testing.B) {
			dir := b.TempDir()
			seed, err := New(Config{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			p := bigBenchPayload(b, size.entries)
			for i := 0; i < files; i++ {
				if err := seed.Put(fmt.Sprintf("r%d", i), p, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(Config{Dir: dir, MaxResident: files / 4})
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != files {
					b.Fatalf("recovery found %d releases, want %d", s.Len(), files)
				}
			}
		})
	}
}
