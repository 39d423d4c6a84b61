package cluster

// Failure injection against the in-process harness: every replica of a
// key down, a partitioned primary, and a replica that missed a
// publish. The contract under test is the ISSUE's acceptance bar — a
// typed 503, never a hang and never a 500.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
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
