package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/store"
)

// histCSV: 8 rows over a one-attribute schema every mechanism accepts.
const (
	histSchema = "Age:ordinal:8"
	histCSV    = "0\n1\n1\n2\n3\n3\n3\n7\n"
)

// TestPublishEveryMechanismRoundTrip publishes through each registered
// mechanism by name and round-trips the mechanism through the summary,
// the codec export, and a daemon restart on the same spill directory.
func TestPublishEveryMechanismRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Store: st}).Handler())

	names := privelet.Mechanisms()
	if len(names) < 4 {
		t.Fatalf("registry too small: %v", names)
	}
	ids := make(map[string]string) // mechanism → release id
	for _, name := range names {
		if strings.Contains(name, "alias") {
			continue // registered by another test in this binary
		}
		sum := publish(t, ts,
			"schema="+histSchema+"&epsilon=1000000000&seed=3&mechanism="+url.QueryEscape(name), histCSV)
		if sum.Mechanism != name {
			t.Fatalf("summary mechanism = %q, want %q", sum.Mechanism, name)
		}
		ids[name] = sum.ID

		// Codec round-trip: the export's header carries the name.
		resp, err := http.Get(ts.URL + "/releases/" + sum.ID + "/export")
		if err != nil {
			t.Fatal(err)
		}
		payload, err := store.DecodeRelease(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding export: %v", name, err)
		}
		if payload.Meta.Mechanism != name {
			t.Fatalf("export mechanism = %q, want %q", payload.Meta.Mechanism, name)
		}

		// All mechanisms answer through the same query path.
		var out struct {
			Count float64 `json:"count"`
		}
		resp, err = http.Get(ts.URL + "/releases/" + sum.ID + "/count?q=Age=0..3")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Count < 6.5 || out.Count > 7.5 {
			t.Fatalf("%s: count = %v, want ~7", name, out.Count)
		}
	}
	ts.Close()

	// Restart: a fresh server over the same directory still reports each
	// release's mechanism.
	st2, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(Config{Store: st2}).Handler())
	defer ts2.Close()
	for name, id := range ids {
		resp, err := http.Get(ts2.URL + "/releases/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sum summary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sum.Mechanism != name {
			t.Fatalf("after restart, %s mechanism = %q", id, sum.Mechanism)
		}
	}
}

// TestPublishMechanismPlusUnescaped: the intuitive (but formally wrong)
// ?mechanism=privelet+ spelling must work — '+' decodes to a space, which
// the server maps back.
func TestPublishMechanismPlusUnescaped(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+histSchema+"&epsilon=1&seed=1&mechanism=privelet+", histCSV)
	if sum.Mechanism != "privelet+" {
		t.Fatalf("mechanism = %q, want privelet+", sum.Mechanism)
	}
}

// TestPublishParamMismatchFailsBeforeIngest: an SA/mechanism mismatch is
// a 400 whose body never had to be read (asserted indirectly: the
// request body is a reader that fails on first read, and the handler
// still produces the param error, not the read error). basic is
// rejected like privelet, as the library and the CLI reject it.
func TestPublishParamMismatchFailsBeforeIngest(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Store: st}).Handler()
	for _, mech := range []string{"privelet", "basic"} {
		t.Run(mech, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost,
				"/publish?schema="+histSchema+"&epsilon=1&mechanism="+mech+"&sa=Age", failingReader{})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", rec.Code)
			}
			if body := rec.Body.String(); !strings.Contains(body, "takes no SA") {
				t.Fatalf("body %q should be the SA mismatch, not an ingest error", body)
			}
		})
	}
}

// failingReader errors on any read: proof the handler did not touch the
// body before rejecting the request.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

func TestPublishUnknownMechanism(t *testing.T) {
	ts := startServer(t)
	resp, err := http.Post(ts.URL+"/publish?schema="+histSchema+"&epsilon=1&mechanism=fourier",
		"text/csv", strings.NewReader(histCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "fourier") || !strings.Contains(string(raw), "privelet+") {
		t.Fatalf("error body %q should name the offender and the registry", raw)
	}
}

func TestMechanismsEndpoint(t *testing.T) {
	ts := startServer(t)
	resp, err := http.Get(ts.URL + "/mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Mechanisms []string `json:"mechanisms"`
		Default    string   `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Default != "privelet+" {
		t.Fatalf("default = %q", out.Default)
	}
	found := map[string]bool{}
	for _, m := range out.Mechanisms {
		found[m] = true
	}
	for _, want := range []string{"privelet+", "privelet", "basic", "hay"} {
		if !found[want] {
			t.Fatalf("/mechanisms missing %q: %v", want, out.Mechanisms)
		}
	}
}

// TestPublishCancelledRequest drives the handler with an already-dead
// request context — the deterministic stand-in for a client that
// disconnected mid-publish. The publish must abort (499, the
// client-closed-request convention) and store nothing.
func TestPublishCancelledRequest(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Store: st}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost,
		"/publish?schema="+histSchema+"&epsilon=1&seed=1", strings.NewReader(histCSV)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("cancelled publish stored %d release(s)", n)
	}
}

func TestDeleteRelease(t *testing.T) {
	dir := t.TempDir()
	st, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	sum := publish(t, ts, "schema="+histSchema+"&epsilon=1&seed=1", histCSV)

	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/releases/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(sum.ID); code != http.StatusNoContent {
		t.Fatalf("DELETE status = %d, want 204", code)
	}
	resp, err := http.Get(ts.URL + "/releases/" + sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", resp.StatusCode)
	}
	if code := del(sum.ID); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
	if code := del("nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", code)
	}

	// The removal is durable: a restart on the same directory recovers
	// nothing.
	st2, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.Len(); n != 0 {
		t.Fatalf("restart recovered %d releases after delete", n)
	}
}

// TestRestartNeverReissuesDeletedID: a restarted server seeds its ID
// counter past deleted releases as well as live ones, so the next
// publish gets a fresh ID and the deleted release's tombstone stays.
func TestRestartNeverReissuesDeletedID(t *testing.T) {
	dir := t.TempDir()
	ts1 := startSpillServer(t, dir, 0)
	publish(t, ts1, "schema="+histSchema+"&epsilon=1&seed=1", histCSV)
	r2 := publish(t, ts1, "schema="+histSchema+"&epsilon=1&seed=2", histCSV)
	if r2.ID != "r2" {
		t.Fatalf("second publish got ID %q, want r2", r2.ID)
	}
	req, err := http.NewRequest(http.MethodDelete, ts1.URL+"/releases/r2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d, want 204", resp.StatusCode)
	}
	ts1.Close()

	st, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(Config{Store: st}).Handler())
	t.Cleanup(ts2.Close)
	fresh := publish(t, ts2, "schema="+histSchema+"&epsilon=1&seed=3", histCSV)
	if fresh.ID != "r3" {
		t.Fatalf("publish after restart got ID %q, want r3", fresh.ID)
	}
	if n := st.Stats().Tombstones; n != 1 {
		t.Fatalf("tombstones after restart and publish = %d, want 1", n)
	}
}
