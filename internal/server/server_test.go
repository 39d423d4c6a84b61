package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/store"
)

const testSchema = "Age:ordinal:8,Occ:nominal:3level:2x3"

// testCSV: 6 rows over (Age 8, Occ 6).
const testCSV = "0,0\n1,1\n2,2\n3,3\n4,4\n5,5\n"

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startSpillServer starts a server whose store keeps at most maxResident
// releases in memory, spilling the rest to dir.
func startSpillServer(t *testing.T, dir string, maxResident int) *httptest.Server {
	t.Helper()
	st, err := store.New(store.Config{Dir: dir, MaxResident: maxResident})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func publish(t *testing.T, ts *httptest.Server, params string, body string) summary {
	t.Helper()
	resp, err := http.Post(ts.URL+"/publish?"+params, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("publish status %d: %s", resp.StatusCode, raw)
	}
	var sum summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestPublishAndCount(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts,
		"schema="+testSchema+"&epsilon=1000000000&seed=1", testCSV)
	if sum.ID == "" || sum.Mechanism != "privelet+" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Entries != 48 {
		t.Fatalf("entries = %d, want 48", sum.Entries)
	}

	// Near-noiseless: count Age in [0,2] = 3 rows.
	resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/count?q=Age=0..2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Count    float64 `json:"count"`
		Coverage float64 `json:"coverage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Count-3) > 1e-3 {
		t.Fatalf("count = %v, want ~3", out.Count)
	}
	if math.Abs(out.Coverage-3.0/8) > 1e-9 {
		t.Fatalf("coverage = %v, want 0.375", out.Coverage)
	}
}

func TestCountHierarchyNodeAndLeaf(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=1000000000&seed=2", testCSV)
	for _, tc := range []struct {
		q    string
		want float64
	}{
		{"Occ=@g0", 3},          // leaves 0..2
		{"Occ=%23%34", 1},       // "#4": leaf 4 (URL-encoded)
		{"Age=0..1,Occ=@g0", 2}, // conjunction
		{"", 6},                 // full domain
	} {
		resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/count?q=" + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Count float64 `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.Count-tc.want) > 1e-3 {
			t.Fatalf("q=%q count = %v, want %v", tc.q, out.Count, tc.want)
		}
	}
}

func TestBasicMechanismParam(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=1&mechanism=basic&seed=3", testCSV)
	if sum.Mechanism != "basic" {
		t.Fatalf("mechanism = %q", sum.Mechanism)
	}
	if sum.Rho != 1 {
		t.Fatalf("basic rho = %v, want 1", sum.Rho)
	}
}

func TestListAndGet(t *testing.T) {
	ts := startServer(t)
	a := publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=4", testCSV)
	b := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=5", testCSV)
	if a.ID == b.ID {
		t.Fatal("release IDs collide")
	}
	resp, err := http.Get(ts.URL + "/releases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []summary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d releases", len(list))
	}
	resp2, err := http.Get(ts.URL + "/releases/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got summary
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != a.ID || got.Epsilon != 1 {
		t.Fatalf("get = %+v", got)
	}
}

func TestExportRoundTrip(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=1000000000&seed=6", testCSV)
	resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := codec.DecodeMapped(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Meta.Mechanism != "privelet+" {
		t.Fatalf("exported mechanism = %q", payload.Meta.Mechanism)
	}
	if payload.Noisy.Len() != 48 {
		t.Fatalf("exported entries = %d", payload.Noisy.Len())
	}
	if math.Abs(payload.Noisy.Total()-6) > 1e-3 {
		t.Fatalf("exported total = %v, want ~6", payload.Noisy.Total())
	}
}

// TestExportSendsSpillFile: on a node with a store directory, /export
// sends the release's spill file as it is, with a Content-Length: the
// body equals the file and store.EncodeRelease of the payload. On a
// node without a directory the export is encoded from the payload, and
// the same publish decodes to the same matrix, bit for bit.
func TestExportSendsSpillFile(t *testing.T) {
	st, err := store.New(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spilled := httptest.NewServer(New(Config{Store: st}).Handler())
	defer spilled.Close()
	mem := startServer(t)
	params := "schema=" + testSchema + "&epsilon=1&seed=21"
	id := publish(t, spilled, params, testCSV).ID

	resp, err := http.Get(spilled.URL + "/releases/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("export: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.ContentLength != int64(len(raw)) {
		t.Fatalf("export Content-Length %d, body %d bytes", resp.ContentLength, len(raw))
	}
	f, err := st.OpenSpill(id)
	if err != nil {
		t.Fatal(err)
	}
	file, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := store.EncodeRelease(&enc, rel.Payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, file) || !bytes.Equal(raw, enc.Bytes()) {
		t.Fatalf("export (%d bytes) differs from the spill file (%d) or the payload's encoding (%d)", len(raw), len(file), enc.Len())
	}

	p, err := store.DecodeRelease(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := exportedNoisy(t, mem, publish(t, mem, params, testCSV).ID)
	want := p.Noisy.Data()
	if len(got) != len(want) {
		t.Fatalf("in-memory export holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-memory export entry %d = %x, spilled %x", i, got[i], want[i])
		}
	}
}

// exportedNoisy downloads a release's /export bytes and returns its
// noisy matrix.
func exportedNoisy(t *testing.T, ts *httptest.Server, id string) []float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/releases/" + url.PathEscape(id) + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("export %s: status %d: %s", id, resp.StatusCode, raw)
	}
	p, err := store.DecodeRelease(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return p.Noisy.Data()
}

// TestSeedlessPublishDrawsFreshNoise: a publish without a seed gets a
// fresh one, on both publish endpoints, so two seedless releases of one
// table carry different noise: a fixed default seed would let anyone who
// knows the schema regenerate the noise and subtract it. An explicit
// seed still replays its release bit for bit.
func TestSeedlessPublishDrawsFreshNoise(t *testing.T) {
	ts := startServer(t)
	params := "schema=" + testSchema + "&epsilon=0.1"
	a := exportedNoisy(t, ts, publish(t, ts, params, testCSV).ID)
	b := exportedNoisy(t, ts, publish(t, ts, params, testCSV).ID)
	if slices.Equal(a, b) {
		t.Fatal("two seedless POST /publish releases of one table have identical noise")
	}
	e1 := exportedNoisy(t, ts, decodeTenantSummary(t, tenantPublish(t, ts, "alice", params, testCSV)).ID)
	e2 := exportedNoisy(t, ts, decodeTenantSummary(t, tenantPublish(t, ts, "alice", params, testCSV)).ID)
	if slices.Equal(e1, e2) {
		t.Fatal("two seedless tenant epochs of one table have identical noise")
	}
	x := exportedNoisy(t, ts, publish(t, ts, params+"&seed=7", testCSV).ID)
	y := exportedNoisy(t, ts, publish(t, ts, params+"&seed=7", testCSV).ID)
	if !slices.Equal(x, y) {
		t.Fatal("two publishes at seed=7 differ; an explicit seed must replay its release")
	}
}

// cutWriter is a ResponseWriter whose connection fails once limit body
// bytes are out. It records every status written and how many body
// bytes preceded it.
type cutWriter struct {
	header   http.Header
	limit    int
	written  int
	statuses []string // "code@bytes"
}

func (w *cutWriter) Header() http.Header { return w.header }

func (w *cutWriter) WriteHeader(code int) {
	w.statuses = append(w.statuses, fmt.Sprintf("%d@%d", code, w.written))
}

func (w *cutWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.limit-w.written)
	w.written += n
	if n < len(p) {
		return n, fmt.Errorf("connection reset")
	}
	return n, nil
}

// TestExportFailureMidBodyAborts: when the connection fails after
// /export has sent part of a release, the handler aborts the response
// (http.ErrAbortHandler), so the client sees a cut stream. It must not
// write an error status and a JSON body after the binary bytes —
// whether it encodes the release (no store directory) or sends its
// spill file.
func TestExportFailureMidBodyAborts(t *testing.T) {
	st, err := store.New(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {Store: st}} {
		exportOverCutConnection(t, New(cfg).Handler())
	}
}

func exportOverCutConnection(t *testing.T, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/publish?schema=A:ordinal:8192&epsilon=1&seed=3", strings.NewReader("0\n5\n")))
	if rec.Code != http.StatusCreated {
		t.Fatalf("publish status %d: %s", rec.Code, rec.Body)
	}
	var sum summary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	w := &cutWriter{header: http.Header{}, limit: 64 << 10}
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/releases/"+sum.ID+"/export", nil))
	}()
	if panicked != http.ErrAbortHandler {
		t.Fatalf("export over a cut connection: panic %v, statuses %v after %d bytes; want http.ErrAbortHandler",
			panicked, w.statuses, w.written)
	}
	if len(w.statuses) != 0 || w.written != w.limit {
		t.Fatalf("statuses %v, %d bytes written; want none after the %d-byte body", w.statuses, w.written, w.limit)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=7", testCSV)

	post := func(params, body string) int {
		resp, err := http.Post(ts.URL+"/publish?"+params, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", testCSV); code != http.StatusBadRequest {
		t.Errorf("missing schema: status %d", code)
	}
	if code := post("schema=bogus", testCSV); code != http.StatusBadRequest {
		t.Errorf("bad schema: status %d", code)
	}
	if code := post("schema="+testSchema+"&epsilon=abc", testCSV); code != http.StatusBadRequest {
		t.Errorf("bad epsilon: status %d", code)
	}
	if code := post("schema="+testSchema+"&epsilon=0", testCSV); code != http.StatusBadRequest {
		t.Errorf("epsilon 0: status %d", code)
	}
	if code := post("schema="+testSchema+"&seed=xyz", testCSV); code != http.StatusBadRequest {
		t.Errorf("bad seed: status %d", code)
	}
	if code := post("schema="+testSchema+"&mechanism=magic", testCSV); code != http.StatusBadRequest {
		t.Errorf("bad mechanism: status %d", code)
	}
	if code := post("schema="+testSchema, "9,9\n"); code != http.StatusBadRequest {
		t.Errorf("out-of-domain CSV: status %d", code)
	}
	if code := get("/releases/ghost"); code != http.StatusNotFound {
		t.Errorf("missing release: status %d", code)
	}
	if code := get("/releases/ghost/count?q="); code != http.StatusNotFound {
		t.Errorf("count on missing release: status %d", code)
	}
	if code := get("/releases/" + sum.ID + "/count?q=Age=9..1"); code != http.StatusBadRequest {
		t.Errorf("bad query: status %d", code)
	}
	if code := get("/releases/" + sum.ID + "/count?q=Nope=1..2"); code != http.StatusBadRequest {
		t.Errorf("unknown attribute: status %d", code)
	}
}

func TestPublishBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBody: 64}).Handler()) // 64-byte cap
	defer ts.Close()
	big := strings.Repeat("1,1\n", 100)
	resp, err := http.Post(ts.URL+"/publish?schema="+testSchema, "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}
}

// TestServerMatchesLibrary: a release published through POST /publish
// is the library's release for the same table, mechanism, ε, SA and
// seed, entry for entry (float64 ==), and /count answers what the
// library release's Count answers.
func TestServerMatchesLibrary(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&mechanism=privelet%2B&epsilon=1&sa=Age&seed=42", testCSV)

	schema, err := cli.ParseSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	tbl := dataset.NewTable(schema)
	if err := cli.ReadRows(schema, strings.NewReader(testCSV), tbl.Append); err != nil {
		t.Fatal(err)
	}
	freq, err := privelet.TableFrequency(tbl)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := privelet.PublishWith(context.Background(), "privelet+", freq, privelet.Params{Epsilon: 1, SA: []string{"Age"}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	payload, err := store.DecodeRelease(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, want := payload.Noisy.Data(), lib.Matrix().Data()
	if len(got) != len(want) {
		t.Fatalf("server release has %d entries, library %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: server %v, library %v", i, got[i], want[i])
		}
	}

	q, err := query.Parse(schema, "Age=0..7")
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := lib.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if c := countQuery(t, ts, sum.ID, "Age=0..7"); c != wantCount {
		t.Fatalf("/count = %v, library Count = %v", c, wantCount)
	}
}

// count fetches /releases/{id}/count?q=... and returns the count.
func countQuery(t *testing.T, ts *httptest.Server, id, q string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/releases/" + id + "/count?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("count status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Count float64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Count
}

// TestPublishParallelismParam: the parallelism knob must never change the
// released values — same seed at parallelism 1 and 4 answers every probe
// query identically.
func TestPublishParallelismParam(t *testing.T) {
	ts := startServer(t)
	serial := publish(t, ts,
		"schema="+testSchema+"&epsilon=0.5&seed=21&parallelism=1", testCSV)
	parallel := publish(t, ts,
		"schema="+testSchema+"&epsilon=0.5&seed=21&parallelism=4", testCSV)
	for _, q := range []string{"", "Age=0..3", "Occ=@g0", "Age=2..6,Occ=%231"} {
		a := countQuery(t, ts, serial.ID, q)
		b := countQuery(t, ts, parallel.ID, q)
		if a != b {
			t.Errorf("q=%q: parallelism 1 count %v != parallelism 4 count %v", q, a, b)
		}
	}
}

func TestPublishBadParallelism(t *testing.T) {
	ts := startServer(t)
	resp, err := http.Post(ts.URL+"/publish?schema="+testSchema+"&parallelism=two",
		"text/csv", strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentPublishes hammers the publish endpoint from many clients
// at once (each publish itself fans out internally); -race is the judge.
func TestConcurrentPublishes(t *testing.T) {
	ts := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Post(
				ts.URL+fmt.Sprintf("/publish?schema=%s&epsilon=1&seed=%d", testSchema, g),
				"text/csv", strings.NewReader(testCSV))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				raw, _ := io.ReadAll(resp.Body)
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, raw)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	resp, err := http.Get(ts.URL + "/releases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []summary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 16 {
		t.Fatalf("got %d releases, want 16", len(list))
	}
}

// TestParallelismCeiling: a client override may lower the worker count
// but never exceed the operator's Config.Parallelism ceiling, and 0/-1 mean
// "the ceiling" rather than "all cores". The effective count is echoed
// as the summary's "workers" field, which is what makes the clamp
// observable — release values are parallelism-independent by design.
func TestParallelismCeiling(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var first summary
	for i, p := range []string{"9999", "0", "-1", "1", ""} {
		params := "schema=" + testSchema + "&epsilon=0.5&seed=77"
		if p != "" {
			params += "&parallelism=" + p
		}
		sum := publish(t, ts, params, testCSV)
		if sum.Workers != 1 {
			t.Errorf("parallelism=%q: effective workers %d, want the operator ceiling 1", p, sum.Workers)
		}
		if i == 0 {
			first = sum
			continue
		}
		if a, b := countQuery(t, ts, first.ID, "Age=0..5"), countQuery(t, ts, sum.ID, "Age=0..5"); a != b {
			t.Errorf("parallelism=%s: count %v != %v", p, b, a)
		}
	}
}

// fetchStats reads the /stats endpoint.
func fetchStats(t *testing.T, ts *httptest.Server) store.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st store.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatsEndpoint(t *testing.T) {
	ts := startServer(t)
	publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=1", testCSV)
	publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=2", testCSV)
	st := fetchStats(t, ts)
	if st.Releases != 2 || st.Resident != 2 || st.Spilled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evictions != 0 || st.Reloads != 0 {
		t.Fatalf("unbounded store should never evict: %+v", st)
	}
}

// TestSpillReloadOverHTTP: with MaxResident 1 the first release is
// evicted by the second publish, and querying it again — a transparent
// reload from disk — returns the exact same float64 the resident release
// produced. Eviction and reload counters surface on /stats.
func TestSpillReloadOverHTTP(t *testing.T) {
	ts := startSpillServer(t, t.TempDir(), 1)
	a := publish(t, ts, "schema="+testSchema+"&epsilon=0.5&seed=11", testCSV)
	probes := []string{"Age=0..2", "Occ=@g0", "Age=1..6,Occ=%232"}
	before := make([]float64, len(probes))
	for i, q := range probes {
		before[i] = countQuery(t, ts, a.ID, q)
	}

	b := publish(t, ts, "schema="+testSchema+"&epsilon=0.5&seed=12", testCSV)
	st := fetchStats(t, ts)
	if st.Evictions == 0 || st.Resident != 1 || st.Spilled != 1 {
		t.Fatalf("stats after second publish = %+v", st)
	}

	for i, q := range probes {
		after := countQuery(t, ts, a.ID, q)
		if after != before[i] {
			t.Errorf("q=%q: post-reload count %v != pre-spill count %v", q, after, before[i])
		}
	}
	if st := fetchStats(t, ts); st.Reloads == 0 {
		t.Fatalf("stats after reload = %+v", st)
	}
	// The other release still answers too (reload ping-pong is fine).
	countQuery(t, ts, b.ID, "Age=0..7")
}

// TestRestartRecoveryOverHTTP: a new server over the same store
// directory serves the old releases and mints non-colliding IDs.
func TestRestartRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()
	ts1 := startSpillServer(t, dir, 0)
	a := publish(t, ts1, "schema="+testSchema+"&epsilon=1000000000&seed=5", testCSV)
	want := countQuery(t, ts1, a.ID, "Age=0..2")
	ts1.Close()

	ts2 := startSpillServer(t, dir, 0)
	if got := countQuery(t, ts2, a.ID, "Age=0..2"); got != want {
		t.Fatalf("recovered count %v != original %v", got, want)
	}
	fresh := publish(t, ts2, "schema="+testSchema+"&epsilon=1&seed=6", testCSV)
	if fresh.ID == a.ID {
		t.Fatalf("restarted server reused release ID %q", fresh.ID)
	}
	list := fetchList(t, ts2)
	if len(list) != 2 {
		t.Fatalf("recovered list has %d releases, want 2", len(list))
	}
}

func fetchList(t *testing.T, ts *httptest.Server) []summary {
	t.Helper()
	resp, err := http.Get(ts.URL + "/releases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []summary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list
}

// TestListDoesNotReload: listing and describing releases must serve from
// the always-resident stubs, not drag spilled matrices back into memory.
func TestListDoesNotReload(t *testing.T) {
	ts := startSpillServer(t, t.TempDir(), 1)
	a := publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=21", testCSV)
	publish(t, ts, "schema="+testSchema+"&epsilon=1&seed=22", testCSV)

	list := fetchList(t, ts)
	if len(list) != 2 {
		t.Fatalf("list has %d releases", len(list))
	}
	resp, err := http.Get(ts.URL + "/releases/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := fetchStats(t, ts)
	if st.Reloads != 0 {
		t.Fatalf("list/get triggered %d reloads, want 0", st.Reloads)
	}
	var spilled, resident int
	for _, sum := range list {
		if sum.Resident {
			resident++
		} else {
			spilled++
		}
	}
	if resident != 1 || spilled != 1 {
		t.Fatalf("list resident/spilled = %d/%d, want 1/1", resident, spilled)
	}
}
