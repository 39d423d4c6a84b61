package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/rng"
	"repro/internal/workload"
)

// batchAnswers POSTs a workload body to the batch endpoint and reads
// the answer lines through to an ok trailer that counts every answer.
func batchAnswers(t *testing.T, ts *httptest.Server, id, params, contentType, body string) []float64 {
	t.Helper()
	target := ts.URL + "/releases/" + id + "/query"
	if params != "" {
		target += "?" + params
	}
	resp, err := http.Post(target, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	answers, trailer, err := workload.ReadAnswerLines(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Status != workload.StatusOK || trailer.Answers != len(answers) {
		t.Fatalf("trailer %+v after %d answers", trailer, len(answers))
	}
	return answers
}

// countOne issues one GET /count and returns the answer. The spec is
// query-escaped: '#' (the leaf-predicate marker) would otherwise start
// the URL fragment.
func countOne(t *testing.T, ts *httptest.Server, id, spec string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/releases/" + id + "/count?q=" + url.QueryEscape(spec))
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

// batchSpecs draws a §VII-A workload against the test schema and renders
// it in the wire format.
func batchSpecs(t *testing.T, n int) []string {
	t.Helper()
	schema, err := cli.ParseSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]string, n)
	for i, q := range queries {
		specs[i] = q.Spec(schema)
	}
	return specs
}

// TestBatchMatchesSequentialCounts is the endpoint's acceptance
// property: one batch request answers a workload bit-identically
// (float64 ==, through /count's JSON and the workload's answer lines)
// to issuing every spec as its own /count call — at several parallelism levels.
func TestBatchMatchesSequentialCounts(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=21", testCSV)
	specs := batchSpecs(t, 400)
	want := make([]float64, len(specs))
	for i, spec := range specs {
		want[i] = countOne(t, ts, sum.ID, spec)
	}
	body := strings.Join(specs, "\n") + "\n"
	for _, params := range []string{"", "parallelism=1", "parallelism=4"} {
		got := batchAnswers(t, ts, sum.ID, params, "text/csv", body)
		if len(got) != len(want) {
			t.Fatalf("%q: %d answers, want %d", params, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: answer %d = %v, /count gave %v", params, i, got[i], want[i])
			}
		}
	}
}

// TestBatchJSONBody: a workload body sent as JSON, in any of the shapes
// the endpoint once read, gets a 415 that names the line format, and
// the release is untouched: the same specs sent as lines still answer.
func TestBatchJSONBody(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=22", testCSV)
	specs := batchSpecs(t, 50)
	raw, err := json.Marshal(map[string]any{"queries": specs})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/json", "application/json; charset=utf-8"} {
		for _, body := range []string{string(raw), `["Age=0..1", "*"]`, `{"queries": [42]}`} {
			resp, err := http.Post(ts.URL+"/releases/"+sum.ID+"/query", ct, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("%s %.40s: status %d, want 415", ct, body, resp.StatusCode)
			}
			if !strings.Contains(string(msg), "one query spec per line") {
				t.Fatalf("%s: error %s does not name the line format", ct, msg)
			}
		}
	}
	if got := batchAnswers(t, ts, sum.ID, "", "text/plain", strings.Join(specs, "\n")); len(got) != len(specs) {
		t.Fatalf("lines after the refusals: %d answers, want %d", len(got), len(specs))
	}
}

func TestBatchEmptyWorkload(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=23", testCSV)
	if got := batchAnswers(t, ts, sum.ID, "", "text/csv", "\n  \n"); len(got) != 0 {
		t.Fatalf("empty workload: %d answers, want 0", len(got))
	}
}

// TestQueryErrorsAreClientErrors: every malformed or out-of-schema spec
// — inverted range, unknown attribute, ordinal range on a nominal
// attribute, unknown hierarchy node, bad syntax — is HTTP 400 (never
// 500) on both the single and the batch endpoint.
func TestQueryErrorsAreClientErrors(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=24", testCSV)
	bad := []string{
		"Age=5..2",     // inverted range
		"Ghost=1..2",   // unknown attribute
		"Occ=1..3",     // range predicate on a nominal attribute
		"Occ=@nothere", // unknown hierarchy node
		"Occ=#9",       // leaf out of domain
		"Age=1..999",   // out of domain
		"Age",          // bad syntax
	}
	for _, spec := range bad {
		resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/count?q=" + spec)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("count %q: status %d, want 400", spec, resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+"/releases/"+sum.ID+"/query", "text/csv",
			strings.NewReader("Age=0..1\n"+spec+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400 (%s)", spec, resp.StatusCode, body)
		}
		// The failing line is identified for 40k-line workloads.
		if !strings.Contains(string(body), "line 2") {
			t.Errorf("batch %q: error %s does not name line 2", spec, body)
		}
	}

	// A JSON body is the client's to fix too: a 415, never a 500.
	resp, err := http.Post(ts.URL+"/releases/"+sum.ID+"/query", "application/json",
		strings.NewReader(`{"queries": [42]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("JSON body: status %d, want 415", resp.StatusCode)
	}

	// Unknown release and bad parallelism keep their own statuses.
	resp, err = http.Post(ts.URL+"/releases/ghost/query", "text/csv", strings.NewReader("*\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing release: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/releases/"+sum.ID+"/query?parallelism=abc", "text/csv", strings.NewReader("*\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad parallelism: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchBodyLimit: MaxBody bounds the workload body exactly as it
// bounds publish uploads.
func TestBatchBodyLimit(t *testing.T) {
	st := newTestStoreServer(t)
	sum := publish(t, st, "schema="+testSchema+"&epsilon=2&seed=25", testCSV)
	big := strings.Repeat("Age=0..1\n", 100)
	resp, err := http.Post(st.URL+"/releases/"+sum.ID+"/query", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized workload: status %d, want 400", resp.StatusCode)
	}
}

// newTestStoreServer starts a server with a tiny MaxBody but room to
// publish the small test CSV.
func newTestStoreServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{MaxBody: 64}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBatchAgainstSpilledRelease: the batch endpoint transparently
// reloads an evicted release and answers bit-identically to the answers
// recorded while it was resident.
func TestBatchAgainstSpilledRelease(t *testing.T) {
	ts := startSpillServer(t, t.TempDir(), 1)
	first := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=26", testCSV)
	specs := batchSpecs(t, 100)
	body := strings.Join(specs, "\n")
	want := batchAnswers(t, ts, first.ID, "", "text/csv", body)
	// Publishing a second release evicts the first (MaxResident = 1).
	publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=27", testCSV)
	got := batchAnswers(t, ts, first.ID, "parallelism=4", "text/csv", body)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after spill: answer %d = %v, want %v", i, got[i], want[i])
		}
	}
}
