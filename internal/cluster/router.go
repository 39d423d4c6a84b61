package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// RingVersionHeader carries the sender's ring membership version on
// calls to a node's /internal endpoints: the router's replication
// pushes and repair triggers. A receiver whose own ring is newer
// refuses the call with a typed 409, so a router running an outdated
// peer list fails loudly instead of shipping copies to stale placement.
// internal/server checks the header under the same name.
const RingVersionHeader = "X-Ring-Version"

// NodeHeader is the response header the router stamps on every proxied
// response with the name of the node that answered — the hook failure-
// injection tests (and operators) use to see where a request landed.
const NodeHeader = "X-Cluster-Node"

// RouterConfig configures a Router.
type RouterConfig struct {
	// Ring places release IDs on nodes. Required.
	Ring *Ring
	// Health tracks node liveness. Required; the caller owns its
	// lifecycle (Start/Stop).
	Health *Health
	// MaxBody bounds the bodies the router buffers: workload uploads,
	// buffered so a failed replica can be retried with the same body,
	// and node release listings. Replication streams each release from
	// the primary's export into the follower's push without buffering
	// it, so MaxBody does not bound a release. ≤ 0 means 64 MiB.
	MaxBody int64
	// Secret is the cluster's shared bearer token: the router sends it
	// on every internal call (replication pushes), and nodes configured
	// with the same secret refuse internal calls without it. Empty
	// disables the header (for unauthenticated deployments).
	Secret string
}

// RouterStats is the router's own accounting, nested under "router" in
// the aggregated /stats response.
type RouterStats struct {
	// Requests counts proxied client requests (not probes).
	Requests int64 `json:"requests"`
	// Retries counts failovers to a next replica after a transport
	// error, 404, or 5xx from the previous one.
	Retries int64 `json:"retries"`
	// NoReplica counts requests refused with the typed 503 because no
	// healthy replica could answer.
	NoReplica int64 `json:"no_healthy_replica"`
	// Replications counts successful follower copies pushed after
	// publishes; ReplicationFailures counts pushes that failed (the
	// release is then under-replicated until republished).
	Replications        int64 `json:"replications"`
	ReplicationFailures int64 `json:"replication_failures"`
}

// Router is the cluster tier's HTTP front end: it mirrors the
// priveletd API (see internal/server) and routes each request by the
// consistent-hash ring — reads fan out over the ID's healthy replicas
// with retry-on-next-replica, writes go to the ID's primary and
// replicate synchronously before the 201 returns. Construct with
// NewRouter; safe for concurrent use.
type Router struct {
	ring    *Ring
	health  *Health
	maxBody int64
	secret  string
	// rr rotates the first replica tried per read, spreading load over
	// the replica set instead of hammering every key's primary.
	rr atomic.Uint64

	requests     atomic.Int64
	retries      atomic.Int64
	noReplica    atomic.Int64
	replications atomic.Int64
	replFailures atomic.Int64
}

// NewRouter builds a router over an existing ring and health tracker.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Ring == nil || cfg.Health == nil {
		return nil, fmt.Errorf("cluster: router needs a Ring and a Health tracker")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	return &Router{ring: cfg.Ring, health: cfg.Health, maxBody: cfg.MaxBody, secret: cfg.Secret}, nil
}

// Stats returns the router's own counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Requests:            rt.requests.Load(),
		Retries:             rt.retries.Load(),
		NoReplica:           rt.noReplica.Load(),
		Replications:        rt.replications.Load(),
		ReplicationFailures: rt.replFailures.Load(),
	}
}

// Handler returns the router's HTTP handler. The surface mirrors a
// single node's API so clients cannot tell a router from a daemon —
// plus the router's own /healthz (process up) and /readyz (at least
// one healthy node).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /publish", rt.count(rt.handlePublish))
	mux.HandleFunc("POST /tenants/{tenant}/publish", rt.count(rt.handleTenantPublish))
	mux.HandleFunc("GET /tenants/{tenant}/budget", rt.count(rt.handleTenantBudget))
	mux.HandleFunc("GET /releases", rt.count(rt.handleList))
	mux.HandleFunc("GET /releases/{id}", rt.count(rt.readByID))
	mux.HandleFunc("DELETE /releases/{id}", rt.count(rt.handleDelete))
	mux.HandleFunc("GET /releases/{id}/count", rt.count(rt.readByID))
	mux.HandleFunc("POST /releases/{id}/query", rt.count(rt.readByID))
	mux.HandleFunc("GET /releases/{id}/export", rt.count(rt.readByID))
	mux.HandleFunc("GET /mechanisms", rt.count(rt.handleAnyNode))
	mux.HandleFunc("GET /stats", rt.count(rt.handleStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	return mux
}

func (rt *Router) count(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		rt.requests.Add(1)
		h(w, req)
	}
}

// handleReadyz: the router is ready when it can route to anything.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(rt.healthy(rt.ring.Nodes())) > 0 {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": "no healthy node in the ring",
		"code":  "no_healthy_replica",
	})
}

// healthy rotates nodes by the round-robin counter, so consecutive
// reads spread over them, and keeps the healthy ones.
func (rt *Router) healthy(nodes []Node) []Node {
	start := int(rt.rr.Add(1) % uint64(len(nodes)))
	out := make([]Node, 0, len(nodes))
	for i := range nodes {
		n := nodes[(start+i)%len(nodes)]
		if rt.health.Healthy(n.Name) {
			out = append(out, n)
		}
	}
	return out
}

// unavailable counts a refused request and writes the typed 503 the
// cluster contract guarantees when no node can serve it:
// machine-readable, never a hang, never a 500.
func (rt *Router) unavailable(w http.ResponseWriter, code, msg string) {
	rt.noReplica.Add(1)
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg, "code": code})
}

// readByID proxies a read keyed by the {id} path value across its
// healthy replicas.
func (rt *Router) readByID(w http.ResponseWriter, req *http.Request) {
	rt.proxyReadNodes(w, req, rt.healthy(rt.ring.ReplicasFor(RouteKey(req.PathValue("id")))))
}

// handleAnyNode proxies a key-less read (e.g. /mechanisms — identical
// on every node) to any healthy node.
func (rt *Router) handleAnyNode(w http.ResponseWriter, req *http.Request) {
	rt.proxyReadNodes(w, req, rt.healthy(rt.ring.Nodes()))
}

// firstBodyBuffer is the most readDeclared allocates before a body's
// bytes arrive.
const firstBodyBuffer = 64 << 10

// readDeclared reads a request body of n declared bytes. Its buffer
// starts at no more than firstBodyBuffer and doubles toward n only as
// bytes fill it, so a client that declares more than it sends holds at
// most twice what it sent, or firstBodyBuffer, of the router's heap,
// and a 1.4 MB workload is read in six allocations, the last of
// exactly n bytes, where io.ReadAll makes about thirty.
func readDeclared(r io.Reader, n int64) ([]byte, error) {
	b := make([]byte, 0, min(n, firstBodyBuffer))
	for {
		m, err := io.ReadFull(r, b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil || int64(len(b)) == n {
			return b, err
		}
		b = append(make([]byte, 0, min(n, 2*int64(cap(b)))), b...)
	}
}

// proxyReadNodes tries candidates in order until one answers:
//
//   - transport error → report the node failed (immediate passive
//     ejection), try the next;
//   - 404 → try the next: a replica that missed a publish (it was down
//     during replication) must not mask a copy its peers hold; the 404
//     is returned only when every reachable replica agrees;
//   - 5xx → try the next (one broken replica must not fail a read its
//     peers can serve);
//   - anything else → relay it, including 4xx: a malformed query is
//     deterministically malformed on every replica.
//
// The request body (workload uploads) is buffered once up front so a
// retry can resend it: by readDeclared when its declared
// Content-Length is within MaxBody, otherwise read to its end under
// the limit. Nothing is written to the client until an upstream
// response is chosen, so retries are invisible; once a response
// streams, an upstream failure aborts the connection (the answer wire
// format's trailer makes the truncation detectable) and the ejection
// makes the client's retry land on a different replica.
func (rt *Router) proxyReadNodes(w http.ResponseWriter, req *http.Request, candidates []Node) {
	var body []byte
	if req.Body != nil && req.Method != http.MethodGet {
		r := http.MaxBytesReader(w, req.Body, rt.maxBody)
		var err error
		if n := req.ContentLength; n > 0 && n <= rt.maxBody {
			body, err = readDeclared(r, n)
		} else {
			body, err = io.ReadAll(r)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "reading request body: "+err.Error())
			return
		}
	}
	saw404 := false
	var lastErr string
	for i, n := range candidates {
		if i > 0 {
			rt.retries.Add(1)
		}
		resp, err := rt.forward(req.Context(), n, req, body)
		if err != nil {
			if req.Context().Err() != nil {
				return // client gone; nothing to answer
			}
			rt.health.ReportFailure(n.Name, err)
			lastErr = err.Error()
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			saw404 = true
			drain(resp)
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Sprintf("%s: status %d", n.Name, resp.StatusCode)
			drain(resp)
			continue
		}
		rt.relay(w, resp, n)
		return
	}
	switch {
	case saw404:
		httpError(w, http.StatusNotFound, fmt.Sprintf("no release %q on any replica", req.PathValue("id")))
	case lastErr != "":
		rt.unavailable(w, "no_healthy_replica", "every replica failed: "+lastErr)
	default:
		rt.unavailable(w, "no_healthy_replica", fmt.Sprintf("no healthy replica for %q", readKey(req)))
	}
}

// readKey names what a refused read was for, for the 503 body.
func readKey(req *http.Request) string {
	if id := req.PathValue("id"); id != "" {
		return RouteKey(id)
	}
	return req.URL.Path
}

// forward issues req's equivalent against node n. A nil body streams
// the original request body through (single-shot, for writes); a
// non-nil body is replayable across retries. Content-Type is the one
// client header a node's public endpoints read.
func (rt *Router) forward(ctx context.Context, n Node, req *http.Request, body []byte) (*http.Response, error) {
	var r io.Reader = req.Body
	if body != nil {
		r = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, nodeURL(n, req), r)
	if err != nil {
		return nil, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	// http.DefaultClient has no overall timeout, which streamed query
	// responses of unbounded duration need; per-connection failures are
	// handled by retry, not deadline.
	return http.DefaultClient.Do(out)
}

// nodeURL rebuilds the request URL against n, preserving the escaped
// path (tenant-epoch IDs carry %2F, which must reach the node intact)
// and the raw query.
func nodeURL(n Node, req *http.Request) string {
	u := n.URL + req.URL.EscapedPath()
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	return u
}

// relay streams resp to the client, flushing per write so streamed
// answer chunks reach the client while later chunks still execute
// upstream. A mid-stream upstream failure ejects the node and aborts
// the client connection — the bytes already sent cannot be unsent, so
// the only honest move is to make the truncation visible (the answer
// formats' trailer contract) rather than silently end the body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, n Node) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(NodeHeader, n.Name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return // client gone; upstream is fine
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			// Upstream died mid-stream: eject it and cut the client
			// connection so the truncation is unmistakable.
			rt.health.ReportFailure(n.Name, rerr)
			panic(http.ErrAbortHandler)
		}
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// primaryUnavailable writes the typed 503 for writes whose primary is
// down. Writes cannot fail over — the primary is where the ID (and,
// for tenants, the budget ledger) lives — so the client must retry
// after the primary returns or the ring is reconfigured.
func (rt *Router) primaryUnavailable(w http.ResponseWriter, key string, primary Node) {
	rt.unavailable(w, "primary_unavailable", fmt.Sprintf("primary %q for %q is unavailable", primary.Name, key))
}

// mintID generates the router's client-facing release ID for plain
// publishes. The node cannot mint it — placement needs the ID before a
// node is chosen — so the router does, and passes it down via the
// publish endpoint's id parameter. The "x" prefix keeps router-minted
// IDs disjoint from the nodes' own "r<counter>" scheme.
func mintID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: reading random ID bytes: %v", err)) // crypto/rand never fails on a sane OS
	}
	return "x" + hex.EncodeToString(b[:])
}

// handlePublish routes a plain publish: mint the ID, stream the CSV to
// the ID's primary, and on success synchronously replicate the encoded
// release to the ID's follower replicas before answering 201. The
// response is the node's created summary plus the router's view:
// which node is primary and which nodes hold copies.
func (rt *Router) handlePublish(w http.ResponseWriter, req *http.Request) {
	id := mintID()
	q := req.URL.Query()
	q.Set("id", id)
	req.URL.RawQuery = q.Encode()
	rt.writeThrough(w, req, RouteKey(id))
}

// handleTenantPublish routes a ledger-gated publish to the tenant's
// primary — the one node that accounts the tenant's budget, kept
// authoritative by tenant-prefix placement — and replicates the
// created epoch before the 201 returns.
func (rt *Router) handleTenantPublish(w http.ResponseWriter, req *http.Request) {
	rt.writeThrough(w, req, RouteKey(req.PathValue("tenant")))
}

// writeThrough forwards a publish to key's primary, then replicates
// the created release to the key's healthy followers. The body is
// streamed, not buffered — publishes are not idempotent (they draw
// noise and, for tenants, debit budget), so there is no retry to
// buffer for.
func (rt *Router) writeThrough(w http.ResponseWriter, req *http.Request, key string) {
	reps := rt.ring.ReplicasFor(key)
	primary := reps[0]
	if !rt.health.Healthy(primary.Name) {
		rt.primaryUnavailable(w, key, primary)
		return
	}
	resp, err := rt.forward(req.Context(), primary, req, nil)
	if err != nil {
		if req.Context().Err() != nil {
			return
		}
		rt.health.ReportFailure(primary.Name, err)
		rt.primaryUnavailable(w, key, primary)
		return
	}
	if resp.StatusCode != http.StatusCreated {
		rt.relay(w, resp, primary)
		return
	}
	var created map[string]any
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&created)
	resp.Body.Close()
	id, _ := created["id"].(string)
	if err != nil || id == "" {
		httpError(w, http.StatusBadGateway, fmt.Sprintf("primary %q returned an unreadable created summary", primary.Name))
		return
	}
	replicas, missing := rt.replicate(req.Context(), primary, reps[1:], id)
	if len(missing) > 0 {
		log.Printf("cluster: %q has %d of %d replicas; missing %s", id, 1+len(replicas), len(reps), strings.Join(missing, "; "))
	}
	created["node"] = primary.Name
	created["replicas"] = append([]string{primary.Name}, replicas...)
	w.Header().Set(NodeHeader, primary.Name)
	writeJSON(w, http.StatusCreated, created)
}

// replicate copies the release id from the primary to each healthy
// follower by moving bytes, never holding a whole release: per
// follower, one GET of the primary's /export (openExport, the GET a
// repair pull makes too), whose body is piped as it arrives into one
// PUT /internal/replicate with the export's Content-Length. A primary
// with a store directory sends its spill file as it is, and the
// follower's store.Ingest streams it into its own, so the copy is
// byte-identical, a format-v1 one included (the follower rebuilds only
// its in-memory table); only a copy whose table fails its checksum
// (codec.ErrTable) is encoded again. Returns the names of followers
// that hold a copy, and for each
// one that does not, "name: reason". A follower that fails in transport
// is ejected and skipped (the release is under-replicated until the
// follower's own repair sweep pulls it); a copy the primary's export
// cut short names the export instead. The primary's copy already
// exists, so the publish itself never fails here.
func (rt *Router) replicate(ctx context.Context, primary Node, followers []Node, id string) (done, missing []string) {
	why := make([]string, len(followers)) // per follower; "" once it holds a copy
	var wg sync.WaitGroup
	for i, f := range followers {
		if !rt.health.Healthy(f.Name) {
			why[i] = "unhealthy"
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.copyReplica(ctx, primary, f, id); err != nil {
				why[i] = err.Error()
			}
		}()
	}
	wg.Wait()
	for i, f := range followers {
		if why[i] == "" {
			rt.replications.Add(1)
			done = append(done, f.Name)
		} else {
			rt.replFailures.Add(1)
			missing = append(missing, f.Name+": "+why[i])
		}
	}
	sort.Strings(done)
	return done, missing
}

// copyReplica makes follower f's copy (see replicate). The push carries
// the cluster bearer token (when one is set) and the router's ring
// version, so a node running a newer membership refuses the copy
// instead of accepting stale placement. A refusal's error carries the
// status and the start of the node's reason.
func (rt *Router) copyReplica(ctx context.Context, primary, f Node, id string) error {
	resp, err := openExport(ctx, http.DefaultClient, primary, id)
	if err != nil {
		return err
	}
	body := &exportBody{ReadCloser: resp.Body}
	defer body.Close()
	push, err := http.NewRequestWithContext(ctx, http.MethodPut, f.URL+"/internal/replicate/"+url.PathEscape(id), body)
	if err != nil {
		return err
	}
	push.ContentLength = resp.ContentLength
	push.Header.Set("Content-Type", "application/octet-stream")
	if rt.secret != "" {
		push.Header.Set("Authorization", "Bearer "+rt.secret)
	}
	push.Header.Set(RingVersionHeader, fmt.Sprintf("%d", rt.ring.Version()))
	pushed, err := http.DefaultClient.Do(push)
	if err == nil {
		defer drain(pushed)
		if pushed.StatusCode != http.StatusCreated && pushed.StatusCode != http.StatusOK {
			why, _ := io.ReadAll(io.LimitReader(pushed.Body, 512))
			err = fmt.Errorf("status %d: %s", pushed.StatusCode, bytes.TrimSpace(why))
		}
	}
	if err != nil && body.failed.Load() {
		return fmt.Errorf("export of %q from %s: %w", id, primary.Name, err)
	}
	var transport *url.Error
	if errors.As(err, &transport) {
		rt.health.ReportFailure(f.Name, err)
	}
	return err
}

// openExport GETs the encoded release id from node n's /export. The
// caller reads and closes the response body; its ContentLength is -1
// when the node encodes the release as it sends it (a node without a
// store directory).
func openExport(ctx context.Context, client *http.Client, n Node, id string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/releases/"+url.PathEscape(id)+"/export", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("export of %q from %s: %w", id, n.Name, err)
	}
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		return nil, fmt.Errorf("export of %q from %s: status %d", id, n.Name, resp.StatusCode)
	}
	return resp, nil
}

// exportBody is a primary's export body on its way into a follower's
// push. It records a read that failed other than at EOF, so a copy the
// primary cut short is not blamed on the follower. The transport reads
// the body on a goroutine of its own, hence the atomic.
type exportBody struct {
	io.ReadCloser
	failed atomic.Bool
}

func (b *exportBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		b.failed.Store(true)
	}
	return n, err
}

// limitBody reads at most limit bytes of body. Where io.LimitReader
// would end the stream at the limit and hand the caller a silently
// truncated release, a read past the limit fails with an error naming
// it.
func limitBody(body io.Reader, limit int64) io.Reader {
	return &limitedBody{r: body, left: limit, limit: limit}
}

type limitedBody struct {
	r           io.Reader
	left, limit int64
}

func (l *limitedBody) Read(p []byte) (int, error) {
	// Ask for one byte past what is left: getting it proves the body
	// is longer than the limit, not merely as long.
	if int64(len(p)) > l.left+1 {
		p = p[:l.left+1]
	}
	n, err := l.r.Read(p)
	if int64(n) > l.left {
		n, l.left = int(l.left), 0
		return n, fmt.Errorf("body exceeds the %d-byte limit", l.limit)
	}
	l.left -= int64(n)
	return n, err
}

// handleTenantBudget reads a tenant's budget from its primary — the
// only node whose ledger accounts the tenant, so a fan-out would read
// zeroes from followers.
func (rt *Router) handleTenantBudget(w http.ResponseWriter, req *http.Request) {
	key := RouteKey(req.PathValue("tenant"))
	primary := rt.ring.PrimaryFor(key)
	if !rt.health.Healthy(primary.Name) {
		rt.primaryUnavailable(w, key, primary)
		return
	}
	rt.proxyReadNodes(w, req, []Node{primary})
}

// handleDelete withdraws a release from every replica of its key — the
// full intended replica set from the ring, not just the currently
// healthy members, because a replica the health prober has ejected may
// still hold a copy. The response reports a per-replica outcome
// ("deleted", "missing", "unreachable", or "error: ...") plus
// "repair_pending": whether any replica could not confirm, in which
// case the node-side anti-entropy sweep finishes the job — the nodes
// that did delete hold tombstones, and the next sweep withdraws the
// copy from the replica that slept through the DELETE. 200 when at
// least one copy was deleted, 404 when every reachable replica denies
// the release, typed 503 when none was reachable.
func (rt *Router) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	key := RouteKey(id)
	replicas := rt.ring.ReplicasFor(key)
	deleted := make([]string, 0, len(replicas))
	outcomes := make(map[string]string, len(replicas))
	missing := 0
	var lastErr string
	for _, n := range replicas {
		resp, err := rt.forward(req.Context(), n, req, nil)
		if err != nil {
			if req.Context().Err() != nil {
				return
			}
			rt.health.ReportFailure(n.Name, err)
			lastErr = err.Error()
			outcomes[n.Name] = "unreachable"
			continue
		}
		switch {
		case resp.StatusCode == http.StatusNoContent:
			deleted = append(deleted, n.Name)
			outcomes[n.Name] = "deleted"
		case resp.StatusCode == http.StatusNotFound:
			missing++
			outcomes[n.Name] = "missing"
		default:
			lastErr = fmt.Sprintf("%s: status %d", n.Name, resp.StatusCode)
			outcomes[n.Name] = fmt.Sprintf("error: status %d", resp.StatusCode)
		}
		drain(resp)
	}
	switch {
	case len(deleted) > 0:
		writeJSON(w, http.StatusOK, map[string]any{
			"id":             id,
			"deleted_from":   deleted,
			"replicas":       outcomes,
			"repair_pending": len(deleted)+missing < len(replicas),
		})
	case missing > 0:
		httpError(w, http.StatusNotFound, fmt.Sprintf("no release %q on any replica", id))
	default:
		rt.unavailable(w, "no_healthy_replica", "delete failed on every replica: "+lastErr)
	}
}

// handleList merges every healthy node's release list, deduplicating
// replicas by ID (each release appears once, whichever copy answered
// first wins — copies are bit-identical, so it does not matter which).
// A node that fails in transport is ejected; one that answers with a
// status other than 200 is only left out.
func (rt *Router) handleList(w http.ResponseWriter, req *http.Request) {
	byID := make(map[string]map[string]any)
	reached := 0
	for _, n := range rt.healthy(rt.ring.Nodes()) {
		list, err := listNode(req.Context(), http.DefaultClient, n, rt.maxBody)
		if err != nil {
			if req.Context().Err() != nil {
				return
			}
			var transport *url.Error
			if errors.As(err, &transport) {
				rt.health.ReportFailure(n.Name, err)
			}
			continue
		}
		reached++
		for _, e := range list {
			if id, _ := e["id"].(string); id != "" {
				if _, dup := byID[id]; !dup {
					byID[id] = e
				}
			}
		}
	}
	if reached == 0 {
		rt.unavailable(w, "no_healthy_replica", `no healthy replica for "/releases"`)
		return
	}
	ids := slices.SortedFunc(maps.Keys(byID), store.CompareIDs)
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id])
	}
	writeJSON(w, http.StatusOK, out)
}

// listNode reads node n's /releases listing, at most limit bytes of it.
// A transport failure comes back as the client's *url.Error.
func listNode(ctx context.Context, client *http.Client, n Node, limit int64) ([]map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/releases", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing %s: status %d", n.Name, resp.StatusCode)
	}
	var list []map[string]any
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(&list); err != nil {
		return nil, fmt.Errorf("listing %s: %w", n.Name, err)
	}
	return list, nil
}

// handleStats aggregates the fleet: every node's /stats verbatim under
// its name, read through a 1 MiB limit (a node that cannot be read
// reports why instead), the health snapshot, and the router's own
// counters — one curl shows the whole cluster.
func (rt *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	nodes := rt.ring.Nodes()
	perNode := make(map[string]json.RawMessage, len(nodes))
	for _, n := range nodes {
		resp, err := rt.forward(req.Context(), n, req, nil)
		if err != nil {
			perNode[n.Name] = errJSON(err.Error())
			continue
		}
		raw, err := io.ReadAll(limitBody(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			perNode[n.Name] = errJSON(fmt.Sprintf("stats status %d", resp.StatusCode))
		case err != nil:
			perNode[n.Name] = errJSON("reading stats: " + err.Error())
		case !json.Valid(raw):
			perNode[n.Name] = errJSON("invalid JSON")
		default:
			perNode[n.Name] = raw
		}
	}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		names = append(names, n.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":       perNode,
		"health":      rt.health.Snapshot(),
		"router":      rt.Stats(),
		"replication": rt.ring.Replication(),
		"ring": map[string]any{
			"version":     rt.ring.Version(),
			"nodes":       names,
			"replication": rt.ring.Replication(),
		},
	})
}

func errJSON(msg string) json.RawMessage {
	raw, _ := json.Marshal(map[string]string{"error": msg})
	return raw
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// ParsePeers parses the daemon's -peers flag: comma-separated
// "name=url" entries (a bare URL derives its name from the host:port).
// Shared by cmd/priveletd's node and route modes so both sides of a
// deployment parse one spelling.
func ParsePeers(spec string) ([]Node, error) {
	var out []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		if !ok {
			rawURL = part
			u, err := url.Parse(rawURL)
			if err != nil || u.Host == "" {
				return nil, fmt.Errorf("cluster: peer %q: need name=url or an absolute URL", part)
			}
			name = u.Host
		}
		u, err := url.Parse(rawURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q: bad URL %q", part, rawURL)
		}
		out = append(out, Node{Name: name, URL: strings.TrimSuffix(rawURL, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return out, nil
}
