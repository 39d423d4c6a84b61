package cluster

// The three-node in-process harness: real priveletd handlers
// (internal/server over internal/store) behind httptest listeners, a
// real ring, prober, and router in front — the whole cluster tier in
// one process, so failure injection (killing a node mid-stream,
// partitioning a primary, a lagging replica) is a function call away.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	clusterSchema = "Age:ordinal:16,Gender:nominal:flat:2"
	clusterCSV    = "0,0\n1,1\n2,0\n3,1\n4,0\n5,1\n6,0\n7,1\n8,0\n15,1\n"
	clusterParams = "schema=" + clusterSchema + "&epsilon=1&seed=7"
)

// clusterSpecs is the query mix the tests cycle through — ordinal
// ranges, a nominal leaf, the full domain, and a conjunction.
var clusterSpecs = []string{
	"Age=0..3", "Age=4..7", "Age=0..15", "Gender=#1",
	"Age=2..9,Gender=#0", "Age=8..15", "Gender=#0", "Age=5..5",
}

// testClusterNode is one in-process priveletd node plus the harness's
// failure-injection hooks.
type testClusterNode struct {
	name string
	ts   *httptest.Server
	st   *store.Store

	// stallCh, when armed via stall(), freezes this node's streamed
	// query responses after the first answer chunk: writes pass through
	// until the handler's first explicit Flush (the end-of-chunk flush
	// that puts real bytes on the wire — net/http buffers everything
	// before it), then the next write blocks until the channel closes.
	// That holds an answer stream mid-flight at a known point — some
	// answers delivered, trailer not — so a test can kill the
	// connection under it deterministically.
	mu      sync.Mutex
	stallCh chan struct{}
}

// stall arms the node's query-write gate; the returned func releases it.
func (n *testClusterNode) stall() (release func()) {
	ch := make(chan struct{})
	n.mu.Lock()
	n.stallCh = ch
	n.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func (n *testClusterNode) disarm() {
	n.mu.Lock()
	n.stallCh = nil
	n.mu.Unlock()
}

func (n *testClusterNode) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n.mu.Lock()
		ch := n.stallCh
		n.mu.Unlock()
		if ch != nil && strings.HasSuffix(req.URL.Path, "/query") {
			w = &stallWriter{ResponseWriter: w, ch: ch}
		}
		h.ServeHTTP(w, req)
	})
}

// stallWriter passes writes through until the handler's first explicit
// Flush, then blocks each further write on the gate channel.
type stallWriter struct {
	http.ResponseWriter
	ch      chan struct{}
	flushed bool
}

func (s *stallWriter) Write(p []byte) (int, error) {
	if s.flushed {
		<-s.ch
	}
	return s.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the node's own writer.
func (s *stallWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func (s *stallWriter) Flush() {
	s.flushed = true
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type testCluster struct {
	ring   *Ring
	health *Health
	router *httptest.Server
	nodes  map[string]*testClusterNode
	order  []string // node names in ring name order
}

// startCluster builds an n-node cluster with R-way replication and a
// router in front. budget > 0 gives every node's ledger that default
// per-tenant ε budget; each opt edits every node's server config.
func startCluster(tb testing.TB, n, replicas int, budget float64, opts ...func(*server.Config)) *testCluster {
	tb.Helper()
	tc := &testCluster{nodes: make(map[string]*testClusterNode, n)}
	ringNodes := make([]Node, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		st, err := store.New(store.Config{AnswerCache: store.DefaultAnswerCache})
		if err != nil {
			tb.Fatal(err)
		}
		node := &testClusterNode{name: name, st: st}
		led, err := ledger.New(ledger.Config{DefaultBudget: budget})
		if err != nil {
			tb.Fatal(err)
		}
		cfg := server.Config{Store: st, Ledger: led, NodeName: name}
		for _, opt := range opts {
			opt(&cfg)
		}
		node.ts = httptest.NewServer(node.middleware(server.New(cfg).Handler()))
		tb.Cleanup(node.ts.Close)
		tc.nodes[name] = node
		ringNodes[i] = Node{Name: name, URL: node.ts.URL}
		tc.order = append(tc.order, name)
	}
	ring, err := NewVersionedRing(ringNodes, replicas, 0)
	if err != nil {
		tb.Fatal(err)
	}
	health := NewHealth(ringNodes, HealthConfig{Interval: 15 * time.Millisecond})
	health.Start()
	tb.Cleanup(health.Stop)
	rt, err := NewRouter(RouterConfig{Ring: ring, Health: health})
	if err != nil {
		tb.Fatal(err)
	}
	tc.ring, tc.health = ring, health
	tc.router = httptest.NewServer(rt.Handler())
	tb.Cleanup(tc.router.Close)
	return tc
}

// kill takes a node down hard: live connections die first (so anything
// mid-stream fails like a crashed process), then the listener closes
// so probes and retries see connection-refused.
func (tc *testCluster) kill(name string) {
	n := tc.nodes[name]
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// publish publishes through the router and returns the decoded created
// body (id, node, replicas, ...).
func clusterPublish(t testing.TB, url, params, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url+"/publish?"+params, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("publish body %q: %v", raw, err)
	}
	return out
}

// countVia asks one /count through the given base URL. The spec is
// query-escaped here — "#leaf" predicates would otherwise read as a
// URL fragment.
func countVia(t testing.TB, base, id, spec string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/releases/" + id + "/count?q=" + url.QueryEscape(spec))
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

// lineWorkload builds a line workload of n queries cycling the spec mix.
func lineWorkload(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(clusterSpecs[i%len(clusterSpecs)])
		b.WriteByte('\n')
	}
	return b.String()
}

// queryLines POSTs a line workload and returns the raw response; the
// caller owns the body.
func queryLines(t testing.TB, base, id, wl string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/releases/"+id+"/query", "text/plain", strings.NewReader(wl))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// referenceAnswers publishes the same table on a standalone single
// node and runs the workload there — the cluster's answers must be
// float64-identical to this.
func referenceAnswers(t testing.TB, wl string) []float64 {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	created := clusterPublish(t, ts.URL, clusterParams, clusterCSV)
	resp := queryLines(t, ts.URL, created["id"].(string), wl)
	defer resp.Body.Close()
	answers, trailer, err := workload.ReadAnswerLines(resp.Body)
	if err != nil || trailer.Status != workload.StatusOK {
		t.Fatalf("reference answers: err=%v trailer=%+v", err, trailer)
	}
	return answers
}

// replicaNames extracts the created body's replica list.
func replicaNames(t *testing.T, created map[string]any) []string {
	t.Helper()
	raw, ok := created["replicas"].([]any)
	if !ok {
		t.Fatalf("created body lacks replicas: %v", created)
	}
	out := make([]string, len(raw))
	for i, v := range raw {
		out[i] = v.(string)
	}
	return out
}

// TestClusterPublishReplicatesAndServes: a publish through the router
// lands on the ID's ring replicas (and only those), and every /count
// through the router — load-spread over both copies — answers exactly
// what a standalone single-node publish answers.
func TestClusterPublishReplicatesAndServes(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	created := clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)
	id := created["id"].(string)
	reps := replicaNames(t, created)
	if len(reps) != 2 {
		t.Fatalf("replicas = %v, want 2", reps)
	}
	want := tc.ring.ReplicasFor(RouteKey(id))
	if reps[0] != want[0].Name && reps[1] != want[0].Name {
		t.Fatalf("replica list %v does not include primary %s", reps, want[0].Name)
	}
	// Exactly the ring's replica set holds a copy.
	holders := map[string]bool{}
	for name, n := range tc.nodes {
		if _, err := n.st.Describe(id); err == nil {
			holders[name] = true
		}
	}
	if len(holders) != 2 || !holders[want[0].Name] || !holders[want[1].Name] {
		t.Fatalf("copies on %v, want exactly %v", holders, []string{want[0].Name, want[1].Name})
	}

	// Single-node reference: identical seed → identical release →
	// float64-identical answers, whichever replica the rotation picks.
	ref := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ref.Close()
	refCreated := clusterPublish(t, ref.URL, clusterParams, clusterCSV)
	for round := 0; round < 4; round++ {
		for _, spec := range clusterSpecs {
			got := countVia(t, tc.router.URL, id, spec)
			wantV := countVia(t, ref.URL, refCreated["id"].(string), spec)
			if got != wantV {
				t.Fatalf("round %d %s: cluster %v != single-node %v", round, spec, got, wantV)
			}
		}
	}

	// The merged list shows the release once, not once per copy.
	resp, err := http.Get(tc.router.URL + "/releases")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	seen := 0
	for _, e := range list {
		if e["id"] == id {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("release appears %d times in merged list, want 1", seen)
	}
}

// TestClusterMechanismsAndStats: key-less reads route to any node, and
// the aggregated /stats names every node with its own identity.
func TestClusterMechanismsAndStats(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)

	resp, err := http.Get(tc.router.URL + "/mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	var mechs struct {
		Mechanisms []string `json:"mechanisms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mechs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mechs.Mechanisms) == 0 {
		t.Fatal("no mechanisms through the router")
	}

	resp, err = http.Get(tc.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Nodes map[string]struct {
			Releases int `json:"releases"`
			Node     struct {
				Name      string `json:"name"`
				StartTime string `json:"start_time"`
				Version   string `json:"version"`
			} `json:"node"`
		} `json:"nodes"`
		Health []NodeHealth `json:"health"`
		Router RouterStats  `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 3 {
		t.Fatalf("aggregated stats cover %d nodes, want 3", len(stats.Nodes))
	}
	total := 0
	for name, ns := range stats.Nodes {
		if ns.Node.Name != name {
			t.Errorf("node %q reports identity %q", name, ns.Node.Name)
		}
		if ns.Node.StartTime == "" || ns.Node.Version == "" {
			t.Errorf("node %q identity incomplete: %+v", name, ns.Node)
		}
		total += ns.Releases
	}
	if total != 2 { // R=2 copies of one release across the fleet
		t.Errorf("fleet holds %d copies, want 2", total)
	}
	if len(stats.Health) != 3 || stats.Router.Requests == 0 {
		t.Errorf("health/router sections incomplete: %+v %+v", stats.Health, stats.Router)
	}
}

// TestClusterDeleteFansOut: DELETE through the router withdraws every
// replica's copy.
func TestClusterDeleteFansOut(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	created := clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)
	id := created["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, tc.router.URL+"/releases/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, raw)
	}
	var del struct {
		DeletedFrom []string `json:"deleted_from"`
	}
	if err := json.Unmarshal(raw, &del); err != nil || len(del.DeletedFrom) != 2 {
		t.Fatalf("deleted_from = %s (err %v), want 2 nodes", raw, err)
	}
	for name, n := range tc.nodes {
		if _, err := n.st.Describe(id); err == nil {
			t.Errorf("node %s still holds %s after fan-out delete", name, id)
		}
	}
	if resp, err := http.Get(tc.router.URL + "/releases/" + id); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestClusterTenantColocationAndBudget: tenant publishes route to the
// tenant's primary (whose ledger is authoritative), epochs replicate
// like any release, the budget endpoint reads the primary, and an
// exhausted budget surfaces as the node's typed 429 through the router.
func TestClusterTenantColocationAndBudget(t *testing.T) {
	tc := startCluster(t, 3, 2, 1.0) // ε budget 1.0 per tenant per node
	params := "schema=" + clusterSchema + "&epsilon=0.6&seed=3"
	resp, err := http.Post(tc.router.URL+"/tenants/alice/publish?"+params, "text/csv", strings.NewReader(clusterCSV))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant publish status %d: %s", resp.StatusCode, raw)
	}
	var created map[string]any
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	if created["id"] != "alice/1" {
		t.Fatalf("epoch id = %v, want alice/1", created["id"])
	}
	primary := tc.ring.PrimaryFor("alice")
	if created["node"] != primary.Name {
		t.Fatalf("tenant publish landed on %v, want primary %s", created["node"], primary.Name)
	}
	// The epoch replicated onto the tenant's replica set.
	for _, n := range tc.ring.ReplicasFor("alice") {
		if _, err := tc.nodes[n.Name].st.Describe("alice/1"); err != nil {
			t.Errorf("replica %s lacks alice/1: %v", n.Name, err)
		}
	}
	// Budget reads the primary's ledger.
	resp, err = http.Get(tc.router.URL + "/tenants/alice/budget")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		Spent float64 `json:"spent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&budget); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if budget.Spent != 0.6 {
		t.Fatalf("spent = %v, want 0.6", budget.Spent)
	}
	// The epoch is queryable through the router (escaped ID).
	if got := countVia(t, tc.router.URL, "alice%2F1", "Age=0..15"); got != got { // NaN guard only
		t.Fatalf("epoch count = %v", got)
	}
	// Second 0.6 overdraws the 1.0 budget: the primary's typed refusal
	// passes through verbatim.
	resp, err = http.Post(tc.router.URL+"/tenants/alice/publish?"+params, "text/csv", strings.NewReader(clusterCSV))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(raw, []byte(`"budget_exhausted"`)) {
		t.Fatalf("overdraw: status %d body %s, want typed 429", resp.StatusCode, raw)
	}
}

// TestClusterKillAnsweringReplicaMidStream is the acceptance scenario:
// publish through the router, start a streamed workload, kill the node
// that is answering while its answer stream is frozen mid-flight, and
// verify (a) the cut stream is detectably truncated, and (b) a retried
// /query through the router lands on the surviving replica and returns
// answers float64-identical to a standalone single-node publish.
func TestClusterKillAnsweringReplicaMidStream(t *testing.T) {
	tc := startCluster(t, 3, 2, 0)
	created := clusterPublish(t, tc.router.URL, clusterParams, clusterCSV)
	id := created["id"].(string)

	const nQueries = 10000
	wl := lineWorkload(nQueries)
	ref := referenceAnswers(t, wl)
	if len(ref) != nQueries {
		t.Fatalf("reference answered %d queries, want %d", len(ref), nQueries)
	}

	// Freeze whichever node answers after its first flushed answer
	// chunk, so the kill is guaranteed to land mid-stream: answers on
	// the wire, trailer not yet written.
	releases := make([]func(), 0, len(tc.nodes))
	for _, n := range tc.nodes {
		releases = append(releases, n.stall())
	}
	resp := queryLines(t, tc.router.URL, id, wl)
	answering := resp.Header.Get(NodeHeader)
	if answering == "" {
		t.Fatal("router response lacks " + NodeHeader)
	}
	// Read a little of the stream to prove it was live, then kill the
	// answering node under it.
	br := bufio.NewReader(resp.Body)
	var partial bytes.Buffer
	for i := 0; i < 50; i++ {
		line, err := br.ReadString('\n')
		partial.WriteString(line)
		if err != nil {
			t.Fatalf("reading the live stream: %v", err)
		}
	}
	tc.nodes[answering].ts.CloseClientConnections()
	for _, rel := range releases {
		rel() // unfreeze: the killed node's writes now fail
	}
	for _, n := range tc.nodes {
		n.disarm() // the retry must stream unimpeded
	}
	rest, readErr := io.ReadAll(br)
	resp.Body.Close()
	partial.Write(rest)
	tc.nodes[answering].ts.Close()
	if readErr == nil {
		// The transport may deliver a clean EOF; the trailer contract
		// still exposes the truncation.
		if _, _, err := workload.ReadAnswerLines(bytes.NewReader(partial.Bytes())); err == nil {
			t.Fatal("killed stream parsed as complete — truncation undetectable")
		}
	}

	// The retry: the router must route around the dead node.
	resp = queryLines(t, tc.router.URL, id, wl)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("retried query status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(NodeHeader); got == answering {
		t.Fatalf("retry answered by the killed node %q", got)
	}
	answers, trailer, err := workload.ReadAnswerLines(resp.Body)
	if err != nil || trailer.Status != workload.StatusOK {
		t.Fatalf("retried stream: err=%v trailer=%+v", err, trailer)
	}
	if len(answers) != len(ref) {
		t.Fatalf("retry delivered %d answers, want %d", len(answers), len(ref))
	}
	for i := range answers {
		if answers[i] != ref[i] {
			t.Fatalf("answer %d: cluster %v != single-node %v", i, answers[i], ref[i])
		}
	}
}

func BenchmarkClusterRoutedCount(b *testing.B) {
	tc := startCluster(b, 3, 2, 0)
	created := clusterPublish(b, tc.router.URL, clusterParams, clusterCSV)
	id := created["id"].(string)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countVia(b, tc.router.URL, id, clusterSpecs[i%len(clusterSpecs)])
	}
}
