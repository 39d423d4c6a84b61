package cluster

// Failure injection against the in-process harness: every replica of a
// key down, a partitioned primary, a replica that missed a publish,
// a release too large for the router to stage, and nodes whose /stats
// cannot be read. Reads get a typed 503, never a hang and never a 500,
// a publish that lands short of its replica set says why in the
// router's log, and the aggregated /stats says why for each node.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// typedError decodes the router's {"error","code"} body.
func typedError(t *testing.T, resp *http.Response) (status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("status %d with untyped body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, body.Code
}

// TestClusterAllReplicasDownTyped503: when every replica of a release
// is dead, reads return the typed 503 — on the very first request
// after the failure (passive ejection) and on every one after (the
// probe loop has marked them) — and never a 500 or a hang.
func TestClusterAllReplicasDownTyped503(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	created := clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)
	id := created["id"].(string)
	for _, n := range tc.ring.ReplicasFor(RouteKey(id)) {
		tc.kill(n.Name)
	}

	client := &http.Client{Timeout: 10 * time.Second} // a hang fails the test, not the suite
	for round := 0; round < 3; round++ {
		resp, err := client.Get(tc.router.URL + "/releases/" + id + "/count?q=Age=0..3")
		if err != nil {
			t.Fatalf("round %d: transport error instead of typed 503: %v", round, err)
		}
		status, code := typedError(t, resp)
		if status != http.StatusServiceUnavailable || code != "no_healthy_replica" {
			t.Fatalf("round %d: got %d/%q, want 503/no_healthy_replica", round, status, code)
		}
	}
	// The streamed path degrades identically.
	resp, err := client.Post(tc.router.URL+"/releases/"+id+"/query", "text/plain", strings.NewReader("Age=0..3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if status, code := typedError(t, resp); status != http.StatusServiceUnavailable || code != "no_healthy_replica" {
		t.Fatalf("query: got %d/%q, want 503/no_healthy_replica", status, code)
	}
	// The surviving node keeps the router alive: /readyz stays 200.
	resp, err = client.Get(tc.router.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz = %d with one node still healthy", resp.StatusCode)
	}
}

// TestClusterPartitionedPrimary: with a tenant's primary unreachable,
// budget-gated writes refuse with the typed 503 (the ledger lives only
// there — answering from a follower could overspend ε), while epoch
// reads keep serving from the surviving replica.
func TestClusterPartitionedPrimary(t *testing.T) {
	tc := startCluster(t, 3, 2, 1.0)
	params := "schema=" + clusterSchema + "&epsilon=0.25&seed=5"
	resp, err := http.Post(tc.router.URL+"/tenants/alice/publish?"+params, "text/csv", strings.NewReader(clusterCSV))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed publish status %d", resp.StatusCode)
	}
	before := countVia(t, tc.router.URL, "alice%2F1", "Age=0..15")

	primary := tc.ring.PrimaryFor("alice")
	tc.kill(primary.Name)

	resp, err = http.Post(tc.router.URL+"/tenants/alice/publish?"+params, "text/csv", strings.NewReader(clusterCSV))
	if err != nil {
		t.Fatal(err)
	}
	if status, code := typedError(t, resp); status != http.StatusServiceUnavailable || code != "primary_unavailable" {
		t.Fatalf("partitioned publish: got %d/%q, want 503/primary_unavailable", status, code)
	}
	resp, err = http.Get(tc.router.URL + "/tenants/alice/budget")
	if err != nil {
		t.Fatal(err)
	}
	if status, code := typedError(t, resp); status != http.StatusServiceUnavailable || code != "primary_unavailable" {
		t.Fatalf("partitioned budget read: got %d/%q, want 503/primary_unavailable", status, code)
	}
	// Reads of the already-published epoch survive on the follower, and
	// the replica serves the identical release.
	if after := countVia(t, tc.router.URL, "alice%2F1", "Age=0..15"); after != before {
		t.Fatalf("follower answered %v, primary answered %v", after, before)
	}
}

// TestClusterReplicaLag404Fallthrough: a replica that missed a publish
// answers 404; the router must treat that as "try the next replica"
// and only report 404 when every reachable replica agrees.
func TestClusterReplicaLag404Fallthrough(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	created := clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)

	// Export the release and ingest it under a fresh ID into ONLY the
	// second replica's store — the primary now lags for that ID.
	resp, err := http.Get(tc.router.URL + "/releases/" + created["id"].(string) + "/export")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d err %v", resp.StatusCode, err)
	}
	const lagID = "lagged1"
	reps := tc.ring.ReplicasFor(RouteKey(lagID))
	if err := tc.nodes[reps[1].Name].st.Ingest(lagID, strings.NewReader(string(raw))); err != nil {
		t.Fatal(err)
	}

	// Every attempt must find the one replica that has it, whichever
	// node the rotation tries first.
	want := countVia(t, tc.router.URL, lagID, "Age=0..7")
	for i := 0; i < 6; i++ {
		if got := countVia(t, tc.router.URL, lagID, "Age=0..7"); got != want {
			t.Fatalf("attempt %d: %v != %v", i, got, want)
		}
	}
	// A release no replica has is a plain 404, not a 503.
	resp, err = http.Get(tc.router.URL + "/releases/absent9/count?q=Age=0..3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent release: status %d, want 404", resp.StatusCode)
	}
}

// TestClusterShortReplicaSetLogged: a follower that refuses the copy —
// here every node's MaxBody is 1 KiB, below the release's encoding —
// leaves the release short of its replica set. The publish still
// answers 201 with the primary's one copy, and the router logs which
// follower lacks a copy and why.
func TestClusterShortReplicaSetLogged(t *testing.T) {
	tc := startCluster(t, 3, 2, 0, func(cfg *server.Config) { cfg.MaxBody = 1 << 10 })

	var logs bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(prev) })
	// The CSV fits in 1 KiB; its 128 cells encode to well over it.
	created := clusterPublish(t, tc.router.URL, "schema=Age:ordinal:64,Gender:nominal:flat:2&epsilon=1&seed=7", clusterCSV)
	log.SetOutput(prev)

	id := created["id"].(string)
	reps := tc.ring.ReplicasFor(RouteKey(id))
	if got := replicaNames(t, created); len(got) != 1 || got[0] != reps[0].Name {
		t.Fatalf("replicas = %v, want only the primary %s", got, reps[0].Name)
	}
	line := logs.String()
	if !strings.Contains(line, "1 of 2 replicas") || !strings.Contains(line, reps[1].Name+": status 400") || !strings.Contains(line, "request body too large") {
		t.Fatalf("router log %q does not name the missing follower %s and its refusal", line, reps[1].Name)
	}
}

// TestClusterStatsNamesReadFailure: the aggregated /stats reports why a
// node's stats could not be read. A body over the 1 MiB limit names the
// limit and invalid JSON says so; both used to read "stats status 200".
// A non-200 still reads "stats status N".
func TestClusterStatsNamesReadFailure(t *testing.T) {
	serve := func(status int, body string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(status)
			io.WriteString(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	// Valid JSON, one byte over the limit: only the limit can fail it.
	pad := 1<<20 - len(`{"pad":""}`) + 1
	nodes := []Node{
		{Name: "big", URL: serve(http.StatusOK, `{"pad":"`+strings.Repeat("x", pad)+`"}`).URL},
		{Name: "bad", URL: serve(http.StatusOK, `{"releases":`).URL},
		{Name: "down", URL: serve(http.StatusInternalServerError, `{}`).URL},
		{Name: "ok", URL: serve(http.StatusOK, `{"releases":3}`).URL},
	}
	ring, err := NewVersionedRing(nodes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Health: NewHealth(nodes, HealthConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Nodes map[string]map[string]any `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"big":  "reading stats: body exceeds the 1048576-byte limit",
		"bad":  "invalid JSON",
		"down": "stats status 500",
	} {
		if got := stats.Nodes[name]["error"]; got != want {
			t.Errorf("node %s: error = %v, want %q", name, got, want)
		}
	}
	if got := stats.Nodes["ok"]["releases"]; got != 3.0 {
		t.Errorf("healthy node's stats = %v, want its body verbatim", stats.Nodes["ok"])
	}
}

// TestClusterCutExportBlamesPrimary: a primary whose export dies
// mid-body cuts the copy the router is piping into the follower's push.
// The router must name the export in its log and leave the follower
// healthy — the follower did nothing wrong — and the follower must hold
// no copy.
func TestClusterCutExportBlamesPrimary(t *testing.T) {
	const id = "alice/1"
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.Method == http.MethodPost:
			io.Copy(io.Discard, req.Body)
			writeJSON(w, http.StatusCreated, map[string]any{"id": id})
		case strings.HasSuffix(req.URL.Path, "/export"):
			w.Header().Set("Content-Length", "4096")
			w.Write(make([]byte, 1024))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // dies 1 KiB into a 4 KiB body
		default:
			http.NotFound(w, req)
		}
	}))
	defer primary.Close()
	st, err := store.New(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	follower := httptest.NewServer(server.New(server.Config{Store: st, NodeName: "follower"}).Handler())
	defer follower.Close()
	nodes := []Node{{Name: "a", URL: primary.URL}, {Name: "b", URL: follower.URL}}
	ring, err := NewVersionedRing(nodes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ring.PrimaryFor(RouteKey(id)).Name != "a" {
		nodes[0].URL, nodes[1].URL = follower.URL, primary.URL
		if ring, err = NewVersionedRing(nodes, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	health := NewHealth(nodes, HealthConfig{})
	rt, err := NewRouter(RouterConfig{Ring: ring, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var logs bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(prev) })
	resp, err := http.Post(ts.URL+"/tenants/alice/publish", "text/csv", strings.NewReader(clusterCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	log.SetOutput(prev)

	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish status %d, want the primary's 201", resp.StatusCode)
	}
	if line := logs.String(); !strings.Contains(line, "1 of 2 replicas") || !strings.Contains(line, "export of \""+id+"\"") {
		t.Fatalf("router log %q does not blame the primary's export", line)
	}
	followerName := ring.ReplicasFor(RouteKey(id))[1].Name
	if !health.Healthy(followerName) {
		t.Fatalf("follower %s was ejected for the primary's cut export", followerName)
	}
	if _, err := st.Describe(id); err == nil {
		t.Fatal("follower registered a cut copy")
	}
}

// TestClusterListSkipsFailingNode: a merged /releases in which one node
// answers 500 still lists every other node's releases, and that node
// stays healthy: a status is not a transport failure.
func TestClusterListSkipsFailingNode(t *testing.T) {
	serve := func(status int, body string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(status)
			io.WriteString(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	nodes := []Node{
		{Name: "a", URL: serve(http.StatusOK, `[{"id":"r10"},{"id":"r2"}]`)},
		{Name: "b", URL: serve(http.StatusInternalServerError, `{"error":"boom"}`)},
		{Name: "c", URL: serve(http.StatusOK, `[{"id":"r2"},{"id":"x1"}]`)},
	}
	ring, err := NewVersionedRing(nodes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	health := NewHealth(nodes, HealthConfig{})
	rt, err := NewRouter(RouterConfig{Ring: ring, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	for round := 0; round < len(nodes); round++ { // each node takes each place in the rotation
		resp, err := http.Get(ts.URL + "/releases")
		if err != nil {
			t.Fatal(err)
		}
		var list []struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("round %d: status %d, decode error %v", round, resp.StatusCode, err)
		}
		var ids []string
		for _, e := range list {
			ids = append(ids, e.ID)
		}
		if got := strings.Join(ids, ","); got != "r2,x1,r10" {
			t.Fatalf("round %d: merged listing %s, want r2,x1,r10", round, got)
		}
	}
	if !health.Healthy("b") {
		t.Fatal("a node that answered 500 was ejected")
	}
}
