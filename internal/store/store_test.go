package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/query"
)

// testPayload builds a small single-attribute release whose noisy values
// are a deterministic function of salt, so distinct releases are
// distinguishable and reload mismatches are detectable.
func testPayload(t testing.TB, salt uint64) *codec.Payload {
	t.Helper()
	schema, err := dataset.NewSchema(dataset.OrdinalAttr("Age", 8))
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.New(8)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Data()
	for i := range data {
		// Irrational increments give full-precision float64s, so a
		// bit-identity check is meaningful.
		data[i] = float64(salt) + float64(i+1)*math.Pi
	}
	return &codec.Payload{
		Meta:   codec.Meta{Mechanism: "privelet+", Epsilon: 1, Rho: 2, Lambda: 4, Bound: 8},
		Schema: schema,
		Noisy:  m,
	}
}

// probeQueries returns a few range queries over the test schema.
func probeQueries(t testing.TB, schema *dataset.Schema) []query.Query {
	t.Helper()
	var qs []query.Query
	for _, r := range [][2]int{{0, 7}, {0, 2}, {3, 5}, {7, 7}} {
		q, err := query.NewBuilder(schema).Range("Age", r[0], r[1]).Build()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

func counts(t testing.TB, rel Release, qs []query.Query) []float64 {
	t.Helper()
	out := make([]float64, len(qs))
	for i, q := range qs {
		c, err := rel.Eval.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestPutGetListDescribe(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("r%d", i+1), testPayload(t, uint64(i)), i+1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	rel, err := s.Get("r3")
	if err != nil {
		t.Fatal(err)
	}
	if rel.ID != "r3" || rel.Workers != 3 || rel.Payload.Noisy.Len() != 8 {
		t.Fatalf("Get(r3) = %+v", rel)
	}
	st, err := s.Describe("r3")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident || st.Entries != 8 || st.Attrs[0] != "Age" || st.Meta.Epsilon != 1 {
		t.Fatalf("Describe(r3) = %+v", st)
	}
	list := s.List()
	if len(list) != 5 {
		t.Fatalf("List has %d entries", len(list))
	}
	for i, st := range list {
		if want := fmt.Sprintf("r%d", i+1); st.ID != want {
			t.Fatalf("List[%d].ID = %q, want %q (sorted)", i, st.ID, want)
		}
	}
	if _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ghost) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Describe("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Describe(ghost) err = %v, want ErrNotFound", err)
	}
}

func TestPutErrors(t *testing.T) {
	if _, err := New(Config{MaxResident: 1}); err == nil {
		t.Fatal("MaxResident without Dir must be rejected")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(t, 0)
	for _, id := range []string{"", "../evil", "a/b/c", "a//b", "/b", "a/", ".hidden", "a/.hidden", "sp ace", "a~b"} {
		if err := s.Put(id, p, 0); err == nil {
			t.Errorf("Put(%q) accepted an invalid id", id)
		}
	}
	// The two-segment "<tenant>/<epoch>" form is valid.
	if err := s.Put("tenant/1", p, 0); err != nil {
		t.Errorf("Put(tenant/1): %v", err)
	}
	if err := s.Put("dup", p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("dup", p, 0); err == nil {
		t.Fatal("duplicate Put must be rejected")
	}
	if err := s.Put("nilpay", nil, 0); err == nil {
		t.Fatal("nil payload must be rejected")
	}
}

// TestSpillReloadBitIdentical is the tentpole's core guarantee: a
// release evicted to disk answers every probe query bit-identically
// (float64 ==, no tolerance) after transparent reload, and the reloaded
// matrix is bit-for-bit the original.
func TestSpillReloadBitIdentical(t *testing.T) {
	s, err := New(Config{MaxResident: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p1 := testPayload(t, 100)
	if err := s.Put("r1", p1, 2); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	qs := probeQueries(t, rel.Payload.Schema)
	before := counts(t, rel, qs)
	wantBits := make([]uint64, p1.Noisy.Len())
	for i, v := range p1.Noisy.Data() {
		wantBits[i] = math.Float64bits(v)
	}

	// Push r1 out: two more Puts exceed MaxResident=2 and r1 is the LRU.
	if err := s.Put("r2", testPayload(t, 200), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("r3", testPayload(t, 300), 1); err != nil {
		t.Fatal(err)
	}
	st, err := s.Describe("r1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident {
		t.Fatal("r1 should have been evicted")
	}
	if got := s.Stats(); got.Evictions == 0 || got.Resident != 2 || got.Spilled != 1 {
		t.Fatalf("Stats after eviction = %+v", got)
	}

	// Transparent reload.
	rel2, err := s.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	after := counts(t, rel2, qs)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("query %d: %v (pre-spill) != %v (post-reload)", i, before[i], after[i])
		}
	}
	for i, v := range rel2.Payload.Noisy.Data() {
		if math.Float64bits(v) != wantBits[i] {
			t.Fatalf("matrix entry %d: bits %x != %x", i, math.Float64bits(v), wantBits[i])
		}
	}
	if got := s.Stats(); got.Reloads == 0 {
		t.Fatalf("Stats after reload = %+v", got)
	}
}

// TestEvictionIsLRU: touching a release via Get protects it; the
// untouched one is the victim.
func TestEvictionIsLRU(t *testing.T) {
	s, err := New(Config{MaxResident: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
		if err := s.Put(id, testPayload(t, uint64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("a"); err != nil { // a is now more recent than b
		t.Fatal(err)
	}
	if err := s.Put("c", testPayload(t, 9), 0); err != nil {
		t.Fatal(err)
	}
	for id, wantResident := range map[string]bool{"a": true, "b": false, "c": true} {
		st, err := s.Describe(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Resident != wantResident {
			t.Errorf("%s resident = %v, want %v", id, st.Resident, wantResident)
		}
	}
}

// TestRestartRecovery: a new store over the same directory serves every
// previously-published release with identical answers.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	var qs []query.Query
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("r%d", i)
		if err := s1.Put(id, testPayload(t, uint64(i*1000)), 1); err != nil {
			t.Fatal(err)
		}
		rel, err := s1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if qs == nil {
			qs = probeQueries(t, rel.Payload.Schema)
		}
		want[id] = counts(t, rel, qs)
	}

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("recovered %d releases, want 3", s2.Len())
	}
	if got := s2.Stats(); got.Resident != 0 || got.Spilled != 3 {
		t.Fatalf("recovered stats = %+v, want all spilled", got)
	}
	for id, wantCounts := range want {
		rel, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got := counts(t, rel, qs)
		for i := range got {
			if got[i] != wantCounts[i] {
				t.Errorf("%s query %d: recovered %v != original %v", id, i, got[i], wantCounts[i])
			}
		}
	}
	// Junk in the directory must not break recovery, and neither must a
	// corrupt spill file — the healthy releases keep serving.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.prvl"), []byte("not a payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery tripped over junk/corrupt files: %v", err)
	}
	if s3.Len() != 3 {
		t.Fatalf("recovered %d releases alongside corrupt file, want 3", s3.Len())
	}

	// Recovery reads headers only, so even a store whose budget has room
	// starts with nothing resident; first Gets load the releases, and the
	// budget bounds them from there.
	s4, err := New(Config{Dir: dir, MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s4.Stats(); got.Resident != 0 || got.Spilled != 3 {
		t.Fatalf("bounded recovery stats = %+v, want 0 resident / 3 spilled", got)
	}
	for _, id := range []string{"r1", "r2", "r3"} {
		if _, err := s4.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := s4.Stats(); got.Resident != 2 || got.Spilled != 1 {
		t.Fatalf("stats after three Gets = %+v, want 2 resident / 1 spilled", got)
	}
}

// TestRecoveryCorruptionOnFirstGet: recovery reads only headers, so a
// damaged table no longer shows at New. It must show on the release's
// first Get, as a counted rebuild that answers bit-identically to the
// original — never as a wrong answer — while a file cut inside its
// matrix is still skipped at New. MaxResident covers every file, so the
// budget has room for each release and still none is loaded at New.
func TestRecoveryCorruptionOnFirstGet(t *testing.T) {
	// testPayload has 8 entries. Its spill file ends with the 64-byte
	// table and a 16-byte trailer (total, checksum, end magic); the
	// matrix's 64 bytes end 8 pad bytes before the table.
	const section, trailer = 8 * 8, 16
	cases := []struct {
		name    string
		damage  func(raw []byte) []byte
		skipped bool
	}{
		{"table-bitflip", func(raw []byte) []byte {
			raw[len(raw)-trailer-section/2] ^= 0x20
			return raw
		}, false},
		{"cut-in-table", func(raw []byte) []byte { return raw[:len(raw)-trailer-section/2] }, false},
		{"cut-in-matrix", func(raw []byte) []byte { return raw[:len(raw)-trailer-section-8-section/2] }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for id, salt := range map[string]uint64{"x": 21, "ok": 22} {
				if err := s1.Put(id, testPayload(t, salt), 1); err != nil {
					t.Fatal(err)
				}
			}
			rel, err := s1.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			qs := probeQueries(t, rel.Payload.Schema)
			want := counts(t, rel, qs)
			raw, err := os.ReadFile(s1.spillPath("x"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s1.spillPath("x"), c.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := New(Config{Dir: dir, MaxResident: 2})
			if err != nil {
				t.Fatal(err)
			}
			if st := s2.Stats(); st.Rebuilds != 0 || st.Resident != 0 {
				t.Fatalf("after recovery Stats = %+v, want 0 rebuilds, 0 resident", st)
			}
			if c.skipped {
				if s2.Len() != 1 {
					t.Fatalf("recovered %d releases, want 1 (the cut file skipped)", s2.Len())
				}
				if _, err := s2.Get("x"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get of the skipped release: err = %v, want ErrNotFound", err)
				}
				return
			}
			if s2.Len() != 2 {
				t.Fatalf("recovered %d releases, want 2", s2.Len())
			}
			rel2, err := s2.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range counts(t, rel2, qs) {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("query %d after %s: %x != %x", i, c.name, got, want[i])
				}
			}
			if st := s2.Stats(); st.Rebuilds != 1 {
				t.Fatalf("after the first Get Rebuilds = %d, want 1 (the fallback must be counted)", st.Rebuilds)
			}
		})
	}
}

// TestLedgerEpochIDsSpillAndRecover covers the continual-publication ID
// scheme end to end at the store layer: "<tenant>/<epoch>" IDs spill
// under flattened '~' filenames, recover with the slash restored,
// enumerate per tenant via ListPrefix in epoch order, and Remove
// reclaims the flattened file.
func TestLedgerEpochIDsSpillAndRecover(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"alice/1", "alice/2", "alice/10", "bob/1", "plain"}
	for i, id := range ids {
		if err := s1.Put(id, testPayload(t, uint64(i)), 0); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "alice~2.prvl")); err != nil {
		t.Fatalf("flattened spill file missing: %v", err)
	}

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(ids) {
		t.Fatalf("recovered %d releases, want %d", s2.Len(), len(ids))
	}
	got := s2.ListPrefix("alice/")
	wantOrder := []string{"alice/1", "alice/2", "alice/10"} // shortest-first = numeric epochs
	if len(got) != len(wantOrder) {
		t.Fatalf("ListPrefix(alice/) = %d stubs, want %d", len(got), len(wantOrder))
	}
	for i, st := range got {
		if st.ID != wantOrder[i] {
			t.Fatalf("ListPrefix[%d] = %q, want %q", i, st.ID, wantOrder[i])
		}
	}
	if rel, err := s2.Get("alice/2"); err != nil || rel.ID != "alice/2" {
		t.Fatalf("Get(alice/2) = %v, %v", rel.ID, err)
	}
	if err := s2.Remove("alice/2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "alice~2.prvl")); !os.IsNotExist(err) {
		t.Fatal("Remove left the flattened spill file behind")
	}
	if len(s2.ListPrefix("alice/")) != 2 {
		t.Fatal("ListPrefix still lists the removed epoch")
	}
}

// TestConcurrentDuplicatePut: racing Puts with the same ID must resolve
// atomically — exactly one wins, and the spill file on disk holds the
// winner's payload, not the loser's or interleaved garbage.
func TestConcurrentDuplicatePut(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := New(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		payloads := []*codec.Payload{testPayload(t, 111), testPayload(t, 222)}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.Put("same", payloads[i], 0)
			}(i)
		}
		wg.Wait()
		var winner *codec.Payload
		switch {
		case errs[0] == nil && errs[1] != nil:
			winner = payloads[0]
		case errs[1] == nil && errs[0] != nil:
			winner = payloads[1]
		default:
			t.Fatalf("want exactly one winner, got errs %v", errs)
		}
		got, _, err := s.loadPayload(s.spillPath("same"))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Noisy.Data() {
			if math.Float64bits(v) != math.Float64bits(winner.Noisy.Data()[i]) {
				t.Fatalf("round %d: spill file entry %d does not match the winning payload", round, i)
			}
		}
	}
}

// TestConcurrentStore hammers Put/Get/List/Stats from many goroutines
// with an eviction budget small enough that spills and reloads happen
// constantly; the race detector is the judge, and every release must
// still answer its identifying query correctly at the end.
func TestConcurrentStore(t *testing.T) {
	s, err := New(Config{MaxResident: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const (
		tenants     = 8
		perTenant   = 6
		readsPerPut = 4
	)
	var wg sync.WaitGroup
	for tenant := 0; tenant < tenants; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				id := fmt.Sprintf("t%d-r%d", tenant, i)
				if err := s.Put(id, testPayload(t, uint64(tenant*1000+i)), 1); err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < readsPerPut; r++ {
					// Read own releases, including spilled ones.
					past := fmt.Sprintf("t%d-r%d", tenant, (i+r)%(i+1))
					rel, err := s.Get(past)
					if err != nil {
						t.Error(err)
						return
					}
					if rel.Payload.Noisy.Len() != 8 {
						t.Errorf("%s: bad payload", past)
						return
					}
				}
				s.List()
				s.Stats()
			}
		}(tenant)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Len() != tenants*perTenant {
		t.Fatalf("Len = %d, want %d", s.Len(), tenants*perTenant)
	}
	st := s.Stats()
	// Every Put and reload that raises the resident count evicts back
	// under the budget before it returns, so the settled store is within it.
	if st.Resident > 4 {
		t.Fatalf("resident %d exceeds budget", st.Resident)
	}
	// Every release answers its identifying full-domain query: the sum
	// of salt + (i+1)π over 8 entries.
	var qs []query.Query
	for tenant := 0; tenant < tenants; tenant++ {
		for i := 0; i < perTenant; i++ {
			id := fmt.Sprintf("t%d-r%d", tenant, i)
			rel, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if qs == nil {
				qs = probeQueries(t, rel.Payload.Schema)
			}
			salt := float64(tenant*1000 + i)
			want := 0.0
			for k := 1; k <= 8; k++ {
				want += salt + float64(k)*math.Pi
			}
			got, err := rel.Eval.Count(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s full-domain count = %v, want %v", id, got, want)
			}
		}
	}
}
