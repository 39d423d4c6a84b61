package cluster

// The fault-injection chaos harness: a reusable in-process fleet of
// real priveletd nodes (internal/server over spill-backed stores, each
// with its own anti-entropy Repairer) behind a ring-aware router, with
// scriptable faults —
//
//   - kill / restart a node: the listener closes hard and a restarted
//     node rebinds the SAME address over the SAME spill directory, so
//     restarts exercise real recovery and the ring stays valid;
//   - drop / delay / truncate a node's inbound replication pushes;
//   - partition a node (every inbound request dies like a cut cable).
//
// On top of it, the convergence invariant the repair subsystem must
// hold: every release reaches all R intended replicas within a bounded
// number of sweeps, every copy is bit-identical to the primary's, and
// budget accounting never double-spends while repair copies releases.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
)

// chaosSecret is the fleet's shared internal bearer token; every test
// fleet runs authenticated so the happy paths prove auth composes with
// repair, not just the 401 test.
const chaosSecret = "chaos-cluster-secret"

// chaosRingVersion is the fleet's membership version — deliberately > 1
// so stale-sender tests have room below it.
const chaosRingVersion = 3

// chaosFaults is one node's scriptable fault state, togglable while
// requests are in flight.
type chaosFaults struct {
	// partitioned kills every inbound request at the socket — the node
	// is up but unreachable, like a cut network path.
	partitioned atomic.Bool
	// dropReplicate refuses inbound replication pushes with a 503;
	// truncateReplicate reads a little of the push body then cuts the
	// connection; delayReplicateNs stalls each push first.
	dropReplicate     atomic.Bool
	truncateReplicate atomic.Bool
	delayReplicateNs  atomic.Int64
}

// chaosNode is one fleet member. The name, address, spill directory and
// fault state survive kill/restart; the store, server and repairer are
// rebuilt each start — exactly what a process restart rebuilds.
type chaosNode struct {
	name   string
	addr   string // stable host:port, rebound on restart
	url    string
	dir    string // spill directory, survives restarts
	faults chaosFaults

	ts    *httptest.Server
	st    *store.Store
	rep   *Repairer
	alive bool
}

// middleware injects the node's scripted faults in front of the real
// priveletd handler.
func (n *chaosNode) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n.faults.partitioned.Load() {
			panic(http.ErrAbortHandler) // die like a cut cable, not a 5xx
		}
		if strings.HasPrefix(req.URL.Path, "/internal/replicate/") {
			if d := n.faults.delayReplicateNs.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if n.faults.dropReplicate.Load() {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"error": "injected fault: replication dropped", "code": "chaos_drop",
				})
				return
			}
			if n.faults.truncateReplicate.Load() {
				_, _ = io.CopyN(io.Discard, req.Body, 64)
				panic(http.ErrAbortHandler) // the push dies mid-body
			}
		}
		h.ServeHTTP(w, req)
	})
}

// chaosFleet is the N-node cluster under test: real ring, real health
// prober, real router, every node repair-capable.
type chaosFleet struct {
	tb     testing.TB
	ring   *Ring
	health *Health
	router *httptest.Server
	budget float64
	nodes  map[string]*chaosNode
}

// startChaosFleet boots n nodes with R-way replication, every internal
// surface authenticated with chaosSecret and stamped at
// chaosRingVersion. budget > 0 gives each node's ledger that default
// per-tenant ε budget.
func startChaosFleet(tb testing.TB, n, replicas int, budget float64) *chaosFleet {
	tb.Helper()
	f := &chaosFleet{tb: tb, budget: budget, nodes: make(map[string]*chaosNode, n)}
	ringNodes := make([]Node, n)
	for i := 0; i < n; i++ {
		// The listener is allocated before the ring exists: placement
		// needs every node's URL, and a restart must rebind the same port
		// or the ring's view of the node would dangle.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		node := &chaosNode{
			name: fmt.Sprintf("node%d", i),
			addr: ln.Addr().String(),
			dir:  tb.TempDir(),
		}
		node.url = "http://" + node.addr
		f.nodes[node.name] = node
		ringNodes[i] = Node{Name: node.name, URL: node.url}
		f.bootNode(node, ln)
	}
	ring, err := NewVersionedRing(ringNodes, replicas, chaosRingVersion)
	if err != nil {
		tb.Fatal(err)
	}
	f.ring = ring
	// The nodes booted before the ring existed (their listeners define
	// it); now that it does, give each its repairer.
	for _, node := range f.nodes {
		f.armRepairer(node)
	}
	f.health = NewHealth(ringNodes, HealthConfig{Interval: 15 * time.Millisecond})
	f.health.Start()
	tb.Cleanup(f.health.Stop)
	// The main router shares f.health, so waitHealthy reflects exactly
	// what this router will and won't route to.
	rt, err := NewRouter(RouterConfig{Ring: f.ring, Health: f.health, Secret: chaosSecret})
	if err != nil {
		tb.Fatal(err)
	}
	f.router = httptest.NewServer(rt.Handler())
	tb.Cleanup(f.router.Close)
	return f
}

// newRouter starts an additional, independent router process over the
// fleet's ring — its own health prober, its own listener — to prove
// router statelessness (the redundancy recipe in the docs).
func (f *chaosFleet) newRouter() *httptest.Server {
	f.tb.Helper()
	health := NewHealth(f.ring.Nodes(), HealthConfig{Interval: 15 * time.Millisecond})
	health.Start()
	f.tb.Cleanup(health.Stop)
	rt, err := NewRouter(RouterConfig{Ring: f.ring, Health: health, Secret: chaosSecret})
	if err != nil {
		f.tb.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	f.tb.Cleanup(ts.Close)
	return ts
}

// bootNode builds a node's process state (store recovery, server,
// listener) on ln. The repairer is attached separately once the ring
// exists (armRepairer); until then the node serves but cannot sweep.
func (f *chaosFleet) bootNode(node *chaosNode, ln net.Listener) {
	f.tb.Helper()
	st, err := store.New(store.Config{Dir: node.dir})
	if err != nil {
		f.tb.Fatal(err)
	}
	node.st = st
	led, err := ledger.New(ledger.Config{DefaultBudget: f.budget})
	if err != nil {
		f.tb.Fatal(err)
	}
	cfg := server.Config{Store: st, Ledger: led, NodeName: node.name, Cluster: server.ClusterConfig{
		Secret:      chaosSecret,
		RingVersion: chaosRingVersion,
		Repair: func(ctx context.Context) (any, error) {
			if node.rep == nil {
				return nil, fmt.Errorf("repairer not armed")
			}
			return node.rep.Sweep(ctx)
		},
		RepairStats: func() any {
			if node.rep == nil {
				return nil
			}
			return node.rep.Stats()
		},
	}}
	ts := httptest.NewUnstartedServer(node.middleware(server.New(cfg).Handler()))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	node.ts = ts
	node.alive = true
	f.tb.Cleanup(func() {
		if node.alive {
			node.ts.Close()
		}
	})
}

// armRepairer attaches a fresh Repairer to the node's current store.
// The background interval is effectively off — chaos tests trigger
// sweeps explicitly so convergence is counted in sweeps, not seconds;
// the background loop has its own test.
func (f *chaosFleet) armRepairer(node *chaosNode) {
	rep, err := NewRepairer(RepairConfig{Self: node.name, Ring: f.ring, Store: node.st, Interval: time.Hour})
	if err != nil {
		f.tb.Fatal(err)
	}
	node.rep = rep
}

// kill takes a node down hard: in-flight connections die first, then
// the listener closes so every later request sees connection-refused.
func (f *chaosFleet) kill(name string) {
	n := f.nodes[name]
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.alive = false
}

// restart boots the killed node again: same name, same address, same
// spill directory — a fresh store recovers whatever the dead process
// had spilled, exactly like a real restart.
func (f *chaosFleet) restart(name string) {
	f.tb.Helper()
	n := f.nodes[name]
	if n.alive {
		f.tb.Fatalf("restart of live node %s", name)
	}
	var ln net.Listener
	var err error
	// The freed port can lag a moment on a loaded machine; retry briefly.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		f.tb.Fatalf("rebinding %s on %s: %v", name, n.addr, err)
	}
	f.bootNode(n, ln)
	f.armRepairer(n)
}

// waitHealthy blocks until the fleet's health prober sees the node in
// the wanted state — the router's view, which lags a kill or restart by
// a probe interval.
func (f *chaosFleet) waitHealthy(name string, want bool) {
	f.tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.health.Healthy(name) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.tb.Fatalf("node %s never became healthy=%v", name, want)
}

// internalRequest builds a correctly authenticated, correctly versioned
// internal request — the headers every legitimate cluster peer sends.
func internalRequest(tb testing.TB, method, url string, body io.Reader) *http.Request {
	tb.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+chaosSecret)
	req.Header.Set(RingVersionHeader, fmt.Sprintf("%d", chaosRingVersion))
	return req
}

// sweepOn triggers one anti-entropy sweep on the named node through the
// real POST /internal/repair endpoint and returns its report.
func (f *chaosFleet) sweepOn(name string) RepairReport {
	f.tb.Helper()
	resp, err := http.DefaultClient.Do(internalRequest(f.tb, http.MethodPost, f.nodes[name].url+"/internal/repair", nil))
	if err != nil {
		f.tb.Fatalf("repair trigger on %s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		f.tb.Fatalf("repair trigger on %s: status %d: %s", name, resp.StatusCode, raw)
	}
	var rep RepairReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		f.tb.Fatalf("repair report from %s: %v (%s)", name, err, raw)
	}
	return rep
}

// exportBytes fetches a node's copy of a release in the codec wire
// format — the bytes the bit-identity invariant compares.
func exportBytes(tb testing.TB, nodeURL, id string) ([]byte, bool) {
	tb.Helper()
	resp, err := http.Get(nodeURL + "/releases/" + escapeID(id) + "/export")
	if err != nil {
		tb.Fatalf("export %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("export %s: status %d", id, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return raw, true
}

func escapeID(id string) string { return strings.ReplaceAll(id, "/", "%2F") }

// codecVersion reads the format version out of encoded release bytes
// (u16 LE after the 4-byte magic) so convergence failures distinguish
// "different payloads" from "same payload, different codec version".
func codecVersion(raw []byte) uint16 {
	if len(raw) < 6 {
		return 0
	}
	return uint16(raw[4]) | uint16(raw[5])<<8
}

// assertConverged is THE invariant: after the sweeps the test scripted,
// every intended replica of id holds a copy bit-identical to the
// primary's, and nobody outside the replica set holds one. The check is
// version-aware: replicas must agree on the codec version before bytes
// are compared, because byte identity across format versions is
// meaningless — a fleet converges on v2 (the table build is
// deterministic, so v2 bytes are as reproducible as v1's were).
func (f *chaosFleet) assertConverged(id string) {
	f.tb.Helper()
	intended := f.ring.ReplicasFor(RouteKey(id))
	primary, ok := exportBytes(f.tb, intended[0].URL, id)
	if !ok {
		f.tb.Fatalf("primary %s lacks %s", intended[0].Name, id)
	}
	want := make(map[string]bool, len(intended))
	for _, n := range intended[1:] {
		want[n.Name] = true
		copyBytes, ok := exportBytes(f.tb, n.URL, id)
		if !ok {
			f.tb.Fatalf("intended replica %s lacks %s", n.Name, id)
		}
		if pv, cv := codecVersion(primary), codecVersion(copyBytes); pv != cv {
			f.tb.Fatalf("replica %s exports %s as codec v%d while the primary exports v%d", n.Name, id, cv, pv)
		}
		if !bytes.Equal(primary, copyBytes) {
			f.tb.Fatalf("replica %s holds a copy of %s that is not bit-identical to the primary's (%d vs %d bytes, both codec v%d)", n.Name, id, len(copyBytes), len(primary), codecVersion(primary))
		}
	}
	for name, node := range f.nodes {
		if name == intended[0].Name || want[name] || !node.alive {
			continue
		}
		if _, err := node.st.Describe(id); err == nil {
			f.tb.Fatalf("node %s outside the replica set holds %s", name, id)
		}
	}
}

// tenantSpent reads one node's own ledger position for a tenant — the
// budget double-spend check reads every replica directly, not through
// the router (which would only show the primary).
func tenantSpent(tb testing.TB, nodeURL, tenant string) float64 {
	tb.Helper()
	resp, err := http.Get(nodeURL + "/tenants/" + tenant + "/budget")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Spent float64 `json:"spent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	return out.Spent
}

// tenantPublish publishes one epoch for tenant through base and returns
// the created body.
func tenantPublish(tb testing.TB, base, tenant, params, body string) map[string]any {
	tb.Helper()
	resp, err := http.Post(base+"/tenants/"+tenant+"/publish?"+params, "text/csv", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		tb.Fatalf("tenant publish status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		tb.Fatalf("tenant publish body %q: %v", raw, err)
	}
	return out
}

// deleteVia issues a DELETE through base and returns (status, body).
func deleteVia(tb testing.TB, base, id string) (int, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/releases/"+escapeID(id), nil)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// deleteOutcome is the router's new per-replica DELETE report.
type deleteOutcome struct {
	ID            string            `json:"id"`
	DeletedFrom   []string          `json:"deleted_from"`
	Replicas      map[string]string `json:"replicas"`
	RepairPending bool              `json:"repair_pending"`
}

// --- the scenarios ---

// TestChaosPublishWithDeadReplicaConvergesAfterRestart is the headline
// acceptance scenario: publish while one intended replica is dead, so
// the release lands under-replicated; restart the dead node; one sweep
// later the release is on all R replicas, bit-identical, and the budget
// was charged exactly once (the repaired copy cost nothing).
func TestChaosPublishWithDeadReplicaConvergesAfterRestart(t *testing.T) {
	// The scenario exercises kill → restart → spill recovery (the mapped
	// reload path) → repair (the pulled copy goes through the decoder
	// every replica ingest shares).
	t.Run("mmap", chaosDeadReplicaConverges)
}

func chaosDeadReplicaConverges(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 1.0)
	reps := f.ring.ReplicasFor("alice")
	primary, follower := reps[0].Name, reps[1].Name

	f.kill(follower)
	f.waitHealthy(follower, false)
	created := tenantPublish(t, f.router.URL, "alice", "schema="+clusterSchema+"&epsilon=0.6&seed=11", clusterCSV)
	id := created["id"].(string)
	if id != "alice/1" {
		t.Fatalf("epoch id = %q, want alice/1", id)
	}
	if _, err := f.nodes[primary].st.Describe(id); err != nil {
		t.Fatalf("primary lacks the fresh epoch: %v", err)
	}

	f.restart(follower)
	f.waitHealthy(follower, true)
	if _, err := f.nodes[follower].st.Describe(id); err == nil {
		t.Fatal("restarted follower holds a copy it never received")
	}

	// One sweep on the restarted follower pulls the missing copy.
	rep := f.sweepOn(follower)
	if len(rep.Pulled) != 1 || rep.Pulled[0] != id+"←"+primary {
		t.Fatalf("sweep pulled %v, want [%s←%s]", rep.Pulled, id, primary)
	}
	f.assertConverged(id)

	// Budget invariant: ε was spent once, at publish, on the primary;
	// repair copied a file, it did not re-publish.
	if spent := tenantSpent(t, f.nodes[primary].url, "alice"); spent != 0.6 {
		t.Fatalf("primary ledger spent %v, want 0.6", spent)
	}
	if spent := tenantSpent(t, f.nodes[follower].url, "alice"); spent != 0 {
		t.Fatalf("follower ledger spent %v after repair, want 0 (double-spend)", spent)
	}

	// A second sweep finds nothing to do — repair is idempotent.
	for _, name := range []string{follower, primary} {
		if rep := f.sweepOn(name); len(rep.Pulled)+len(rep.DeletesPropagated)+len(rep.Errors) != 0 {
			t.Fatalf("second sweep on %s was not a no-op: %+v", name, rep)
		}
	}
}

// TestChaosRepairPullsMissingCopy: a release held only outside its
// intended replica set, as a membership change leaves it, reaches each
// intended replica through that replica's own sweep, which falls back
// to the outside holder when no intended node has a copy. The other
// intended node is partitioned during each sweep, so both pulls come
// from the outside node.
func TestChaosRepairPullsMissingCopy(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	reps := f.ring.ReplicasFor("bob")
	outside := ""
	for name := range f.nodes {
		if name != reps[0].Name && name != reps[1].Name {
			outside = name
		}
	}
	// Publish straight to the outside node, past the router.
	id := tenantPublish(t, f.nodes[outside].url, "bob", "schema="+clusterSchema+"&epsilon=0.5&seed=5", clusterCSV)["id"].(string)
	want, ok := exportBytes(t, f.nodes[outside].url, id)
	if !ok {
		t.Fatalf("%s lacks %s", outside, id)
	}
	for i, n := range reps {
		other := f.nodes[reps[1-i].Name]
		other.faults.partitioned.Store(true)
		rep := f.sweepOn(n.Name)
		other.faults.partitioned.Store(false)
		if len(rep.Pulled) != 1 || rep.Pulled[0] != id+"←"+outside {
			t.Fatalf("sweep on %s pulled %v, want [%s←%s]", n.Name, rep.Pulled, id, outside)
		}
		if got, ok := exportBytes(t, n.URL, id); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s's pulled copy of %s is not byte-identical to %s's", n.Name, id, outside)
		}
	}
}

// TestChaosDeleteWithDeadReplicaFinishedBySweep is the DELETE
// regression: deleting while a replica is dead reports exactly which
// replicas confirmed, and the repair sweep finishes the job when the
// dead replica comes back with its stale copy — without resurrecting
// the release anywhere.
func TestChaosDeleteWithDeadReplicaFinishedBySweep(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	reps := f.ring.ReplicasFor("carol")
	primary, follower := reps[0].Name, reps[1].Name
	created := tenantPublish(t, f.router.URL, "carol", "schema="+clusterSchema+"&epsilon=0.5&seed=9", clusterCSV)
	id := created["id"].(string)
	f.assertConverged(id) // synchronous replication already placed both copies

	f.kill(follower)
	f.waitHealthy(follower, false)
	status, raw := deleteVia(t, f.router.URL, id)
	if status != http.StatusOK {
		t.Fatalf("delete status %d: %s", status, raw)
	}
	var out deleteOutcome
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("delete body %s: %v", raw, err)
	}
	if len(out.DeletedFrom) != 1 || out.DeletedFrom[0] != primary {
		t.Fatalf("deleted_from = %v, want [%s]", out.DeletedFrom, primary)
	}
	if out.Replicas[primary] != "deleted" || out.Replicas[follower] != "unreachable" {
		t.Fatalf("per-replica outcomes = %v", out.Replicas)
	}
	if !out.RepairPending {
		t.Fatal("delete with a dead replica did not flag repair_pending")
	}

	// The dead replica comes back still holding its copy (recovered from
	// its own spill directory) — the exact resurrection hazard.
	f.restart(follower)
	f.waitHealthy(follower, true)
	if _, err := f.nodes[follower].st.Describe(id); err != nil {
		t.Fatalf("restarted follower lost its stale copy prematurely: %v", err)
	}

	// The primary's sweep propagates its tombstone.
	rep := f.sweepOn(primary)
	if len(rep.DeletesPropagated) != 1 || rep.DeletesPropagated[0] != id+"@"+follower {
		t.Fatalf("sweep propagated %v, want [%s@%s]", rep.DeletesPropagated, id, follower)
	}
	for name, node := range f.nodes {
		if _, err := node.st.Describe(id); err == nil {
			t.Fatalf("node %s still holds %s after repair", name, id)
		}
	}
	resp, err := http.Get(f.router.URL + "/releases/" + escapeID(id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted release answers %d through the router, want 404", resp.StatusCode)
	}
}

// TestChaosPartitionedPrimaryDeleteFinishedBySweep: DELETE reaches only
// the follower because the primary is partitioned. When the partition
// heals, the primary's own sweep leaves its stale copy alone (it holds
// the release, so it pulls nothing, and it never pushes), and the
// follower's sweep, which holds the tombstone, withdraws the copy.
func TestChaosPartitionedPrimaryDeleteFinishedBySweep(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	reps := f.ring.ReplicasFor("dave")
	primary, follower := reps[0].Name, reps[1].Name
	created := tenantPublish(t, f.router.URL, "dave", "schema="+clusterSchema+"&epsilon=0.5&seed=13", clusterCSV)
	id := created["id"].(string)
	f.assertConverged(id)

	f.nodes[primary].faults.partitioned.Store(true)
	f.waitHealthy(primary, false)
	status, raw := deleteVia(t, f.router.URL, id)
	if status != http.StatusOK {
		t.Fatalf("delete status %d: %s", status, raw)
	}
	var out deleteOutcome
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Replicas[primary] != "unreachable" || out.Replicas[follower] != "deleted" || !out.RepairPending {
		t.Fatalf("per-replica outcomes = %+v", out)
	}

	f.nodes[primary].faults.partitioned.Store(false)
	f.waitHealthy(primary, true)
	if _, err := f.nodes[primary].st.Describe(id); err != nil {
		t.Fatalf("partitioned primary lost its copy without repair: %v", err)
	}
	if rep := f.sweepOn(primary); len(rep.Pulled)+len(rep.DeletesPropagated)+len(rep.Errors) != 0 {
		t.Fatalf("primary's sweep acted on a release it holds: %+v", rep)
	}
	if _, err := f.nodes[follower].st.Describe(id); err == nil {
		t.Fatalf("the primary's sweep resurrected %s on %s", id, follower)
	}
	rep := f.sweepOn(follower)
	if len(rep.DeletesPropagated) != 1 || rep.DeletesPropagated[0] != id+"@"+primary {
		t.Fatalf("sweep propagated %v, want [%s@%s]", rep.DeletesPropagated, id, primary)
	}
	for name, node := range f.nodes {
		if _, err := node.st.Describe(id); err == nil {
			t.Fatalf("node %s still holds %s after the follower's sweep", name, id)
		}
	}
}

// TestChaosReplicationFaultsRepaired scripts the replication-path
// faults: a dropped push and a truncated push both leave the release
// under-replicated with no partial state on the victim, and one sweep
// on the victim repairs each; a delayed push just makes the synchronous
// publish wait.
func TestChaosReplicationFaultsRepaired(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	reps := f.ring.ReplicasFor("erin")
	primary, follower := reps[0].Name, reps[1].Name
	params := "schema=" + clusterSchema + "&epsilon=0.5&seed=17"

	// Fault: the follower refuses pushes.
	f.nodes[follower].faults.dropReplicate.Store(true)
	id1 := tenantPublish(t, f.router.URL, "erin", params, clusterCSV)["id"].(string)
	if _, err := f.nodes[follower].st.Describe(id1); err == nil {
		t.Fatal("dropped push still delivered a copy")
	}
	f.nodes[follower].faults.dropReplicate.Store(false)
	rep := f.sweepOn(follower)
	if len(rep.Pulled) != 1 || rep.Pulled[0] != id1+"←"+primary {
		t.Fatalf("sweep after dropped push: %+v", rep)
	}
	f.assertConverged(id1)

	// Fault: pushes die mid-body. The victim must keep no partial state.
	f.nodes[follower].faults.truncateReplicate.Store(true)
	id2 := tenantPublish(t, f.router.URL, "erin", params, clusterCSV)["id"].(string)
	f.nodes[follower].faults.truncateReplicate.Store(false)
	if _, err := f.nodes[follower].st.Describe(id2); err == nil {
		t.Fatal("truncated push still registered a release")
	}
	f.waitHealthy(follower, true) // the aborted push passively ejected it
	rep = f.sweepOn(follower)
	if len(rep.Pulled) != 1 || rep.Pulled[0] != id2+"←"+primary {
		t.Fatalf("sweep after truncated push: %+v", rep)
	}
	f.assertConverged(id2)

	// Fault: pushes are slow. The synchronous publish waits them out —
	// no under-replication, nothing for repair to do.
	f.nodes[follower].faults.delayReplicateNs.Store(int64(100 * time.Millisecond))
	id3 := tenantPublish(t, f.router.URL, "erin", params, clusterCSV)["id"].(string)
	f.nodes[follower].faults.delayReplicateNs.Store(0)
	f.assertConverged(id3)
	rep = f.sweepOn(follower)
	if len(rep.Pulled) != 0 {
		t.Fatalf("sweep after delayed (but delivered) push pulled again: %+v", rep)
	}
}

// TestChaosInternalAuth: the internal surface is closed without the
// cluster secret — no token and a wrong token both get the typed 401,
// on replication and on the repair trigger alike.
func TestChaosInternalAuth(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	created := tenantPublish(t, f.router.URL, "frank", "schema="+clusterSchema+"&epsilon=0.5&seed=19", clusterCSV)
	id := created["id"].(string)
	primary := f.ring.ReplicasFor("frank")[0]
	wire, ok := exportBytes(t, primary.URL, id)
	if !ok {
		t.Fatalf("primary lacks %s", id)
	}

	for _, tc := range []struct {
		name, token string
	}{
		{"no token", ""},
		{"wrong token", "Bearer not-the-secret"},
	} {
		for _, target := range []struct {
			method, url string
			body        io.Reader
		}{
			{http.MethodPut, primary.URL + "/internal/replicate/intruder1", bytes.NewReader(wire)},
			{http.MethodPost, primary.URL + "/internal/repair", nil},
		} {
			req, err := http.NewRequest(target.method, target.url, target.body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.token != "" {
				req.Header.Set("Authorization", tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s with %s: status %d, want 401 (%s)", target.method, target.url, tc.name, resp.StatusCode, raw)
			}
			if !bytes.Contains(raw, []byte(`"unauthorized"`)) {
				t.Fatalf("401 body lacks typed code: %s", raw)
			}
		}
	}
	// The rejected push must not have stored anything.
	if _, err := f.nodes[primary.Name].st.Describe("intruder1"); err == nil {
		t.Fatal("unauthenticated replicate stored a release")
	}
	// And the properly authenticated path still works.
	resp, err := http.DefaultClient.Do(internalRequest(t, http.MethodPut, primary.URL+"/internal/replicate/legit1", bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("authenticated replicate: status %d, want 201", resp.StatusCode)
	}
}

// TestChaosStaleRingRefused: an internal call stamped with an older
// membership version gets the typed 409 — a peer routing on a stale
// peer list must fail loudly, not ship copies to outdated placement.
func TestChaosStaleRingRefused(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	var anyNode *chaosNode
	for _, n := range f.nodes {
		anyNode = n
		break
	}
	req := internalRequest(t, http.MethodPost, anyNode.url+"/internal/repair", nil)
	req.Header.Set(RingVersionHeader, fmt.Sprintf("%d", chaosRingVersion-1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(raw, []byte(`"stale_ring"`)) {
		t.Fatalf("stale sender: status %d body %s, want typed 409", resp.StatusCode, raw)
	}
	// A current-version sender passes.
	resp, err = http.DefaultClient.Do(internalRequest(t, http.MethodPost, anyNode.url+"/internal/repair", nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("current-version repair trigger: status %d, want 200", resp.StatusCode)
	}
	// And a newer-than-us sender passes too: the receiver is the stale
	// one then, and refusing would wedge a rolling membership change.
	req = internalRequest(t, http.MethodPost, anyNode.url+"/internal/repair", nil)
	req.Header.Set(RingVersionHeader, fmt.Sprintf("%d", chaosRingVersion+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newer-version repair trigger: status %d, want 200", resp.StatusCode)
	}
}

// TestChaosTwoRoutersServeOneFleet backs the router-redundancy recipe:
// routers are stateless over the same ring, so a publish through one is
// served and deleted through the other — N routers behind any dumb TCP
// balancer need no coordination.
func TestChaosTwoRoutersServeOneFleet(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	routerB := f.newRouter()

	created := tenantPublish(t, f.router.URL, "grace", "schema="+clusterSchema+"&epsilon=0.5&seed=23", clusterCSV)
	id := created["id"].(string)
	f.assertConverged(id)

	// Identical answers through both routers (bit-identical copies make
	// this exact, not approximate).
	for _, spec := range clusterSpecs[:4] {
		a := countVia(t, f.router.URL, escapeID(id), spec)
		b := countVia(t, routerB.URL, escapeID(id), spec)
		if a != b {
			t.Fatalf("%s: router A answers %v, router B %v", spec, a, b)
		}
	}

	// Delete through router B, observe through router A.
	status, raw := deleteVia(t, routerB.URL, id)
	if status != http.StatusOK {
		t.Fatalf("delete via router B: status %d: %s", status, raw)
	}
	resp, err := http.Get(f.router.URL + "/releases/" + escapeID(id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("router A still serves the release router B deleted: %d", resp.StatusCode)
	}
}

// TestChaosBackgroundRepairLoop: the Start/Stop ticker loop converges a
// fleet without any explicit trigger — kill a replica, publish, restart
// it, and its background sweeps alone must pull the missing copy.
func TestChaosBackgroundRepairLoop(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	follower := f.ring.ReplicasFor("heidi")[1].Name

	f.kill(follower)
	f.waitHealthy(follower, false)
	id := tenantPublish(t, f.router.URL, "heidi", "schema="+clusterSchema+"&epsilon=0.5&seed=29", clusterCSV)["id"].(string)
	f.restart(follower)
	f.waitHealthy(follower, true)

	// A fast background loop on the restarted follower; nothing else
	// triggers.
	rep, err := NewRepairer(RepairConfig{Self: follower, Ring: f.ring, Store: f.nodes[follower].st, Interval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := f.nodes[follower].st.Describe(id); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never repaired %s (stats %+v)", id, rep.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.assertConverged(id)
	// The copy is visible as soon as Ingest registers it, before the
	// sweep counts it, so the counters may lag. Stop waits for the
	// in-flight sweep to return; the deferred Stop is then a no-op.
	rep.Stop()
	if st := rep.Stats(); st.Sweeps == 0 || st.Pulled == 0 {
		t.Fatalf("loop stats unpopulated: %+v", st)
	}
}

// TestChaosStatsCarryRingSection: every node's /stats carries the ring
// membership version and its repairer's counters, and the router's
// aggregated /stats carries the ring section — the observability the
// runbooks point at.
func TestChaosStatsCarryRingSection(t *testing.T) {
	f := startChaosFleet(t, 3, 2, 0)
	tenantPublish(t, f.router.URL, "ivan", "schema="+clusterSchema+"&epsilon=0.5&seed=31", clusterCSV)
	primary := f.ring.ReplicasFor("ivan")[0].Name
	f.sweepOn(primary)

	var nodeStats struct {
		Ring struct {
			Version uint64       `json:"version"`
			Repair  *RepairStats `json:"repair"`
		} `json:"ring"`
	}
	resp, err := http.Get(f.nodes[primary].url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&nodeStats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if nodeStats.Ring.Version != chaosRingVersion {
		t.Fatalf("node ring version = %d, want %d", nodeStats.Ring.Version, chaosRingVersion)
	}
	if nodeStats.Ring.Repair == nil || nodeStats.Ring.Repair.Sweeps == 0 {
		t.Fatalf("node repair stats missing or empty: %+v", nodeStats.Ring.Repair)
	}

	var routerStats struct {
		Ring struct {
			Version     uint64   `json:"version"`
			Nodes       []string `json:"nodes"`
			Replication int      `json:"replication"`
		} `json:"ring"`
	}
	resp, err = http.Get(f.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&routerStats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if routerStats.Ring.Version != chaosRingVersion || len(routerStats.Ring.Nodes) != 3 || routerStats.Ring.Replication != 2 {
		t.Fatalf("router ring section = %+v", routerStats.Ring)
	}
}

// spillBytes reads a node's spill file of id through its store.
func spillBytes(tb testing.TB, st *store.Store, id string) []byte {
	tb.Helper()
	f, err := st.OpenSpill(id)
	if err != nil {
		tb.Fatalf("opening the spill file of %s: %v", id, err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestChaosReleaseOverRouterMaxBody: a release whose encoding exceeds
// the router's MaxBody replicates through that router, which pipes the
// primary's export into the follower's push without buffering it, and a
// follower that missed the push pulls it in its repair sweep. Both
// copies' spill files, and the /export each follower sends, are
// byte-identical to the primary's spill file, and no node rebuilt a
// table.
func TestChaosReleaseOverRouterMaxBody(t *testing.T) {
	f := startChaosFleet(t, 3, 3, 0)
	rt, err := NewRouter(RouterConfig{Ring: f.ring, Health: f.health, Secret: chaosSecret, MaxBody: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	reps := f.ring.ReplicasFor("frank")
	primary, pushed, pulled := reps[0].Name, reps[1].Name, reps[2].Name

	f.nodes[pulled].faults.dropReplicate.Store(true)
	created := tenantPublish(t, ts.URL, "frank", "schema=Age:ordinal:64,Gender:nominal:flat:2&epsilon=0.5&seed=3", clusterCSV)
	f.nodes[pulled].faults.dropReplicate.Store(false)
	id := created["id"].(string)
	if got := replicaNames(t, created); len(got) != 2 || got[0] != primary || got[1] != pushed {
		t.Fatalf("replicas = %v, want [%s %s]", got, primary, pushed)
	}
	want := spillBytes(t, f.nodes[primary].st, id)
	if len(want) <= 1<<10 {
		t.Fatalf("the release encodes to %d bytes, within the router's 1 KiB MaxBody", len(want))
	}
	if rep := f.sweepOn(pulled); len(rep.Pulled) != 1 || !strings.HasPrefix(rep.Pulled[0], id+"←") {
		t.Fatalf("sweep on %s pulled %v, want %s", pulled, rep.Pulled, id)
	}
	for _, name := range []string{pushed, pulled} {
		if got := spillBytes(t, f.nodes[name].st, id); !bytes.Equal(got, want) {
			t.Fatalf("%s's spill file of %s differs from the primary's", name, id)
		}
		if got, ok := exportBytes(t, f.nodes[name].url, id); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s's /export of %s differs from the primary's spill file", name, id)
		}
	}
	for name, n := range f.nodes {
		if st := n.st.Stats(); st.Rebuilds != 0 {
			t.Fatalf("%s rebuilt %d tables", name, st.Rebuilds)
		}
	}
}
