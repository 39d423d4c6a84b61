// Package server exposes releases over HTTP so analysts can query a
// published noisy matrix without the raw data (or the Go library). It is
// the thin "serving" layer a downstream deployment of Privelet needs:
// the privacy budget was spent at publish time (paper §III: the release
// step is where ε is consumed), so the server can answer unlimited
// queries with no further accounting.
//
// Releases live in an internal/store.Store — when configured with a
// spill directory, bounded in memory and durable across restarts. See
// that package for the serving-model rationale.
//
// Publishing goes through the privelet mechanism registry: the publish
// endpoint's mechanism parameter selects any registered mechanism by
// name ("privelet+", "privelet", "basic", "hay", plus whatever the
// embedding process registered), the uploaded CSV is streamed straight
// into the frequency matrix (the table is never buffered), and the
// publish runs under the request context so a disconnected client
// cancels its own in-flight work.
//
// Endpoints:
//
//	POST   /publish?schema=...&epsilon=...&sa=...&seed=...&mechanism=...&parallelism=...
//	       body: headerless integer CSV           → {"id": "...", ...}
//	       without seed the noise comes from a fresh random seed, so
//	       only a publish that names its seed can be replayed
//	POST   /tenants/{tenant}/publish?schema=...   → {"id": "<tenant>/<epoch>", ...}
//	       the same publish, gated by the tenant's privacy-budget
//	       ledger: ε is debited before any noise is drawn (sequential
//	       composition across the tenant's epochs), refunded if the
//	       publish fails or the client disconnects, and an exhausted
//	       budget is refused with HTTP 429 and a typed body
//	       ({"code":"budget_exhausted", ...}) — never a 500. Each
//	       success registers a versioned release "<tenant>/<epoch>",
//	       queryable like any other (URL-encode the slash: %2F).
//	GET    /tenants/{tenant}/budget               → balance, epoch counter, epoch list
//	GET    /releases                              → list of release summaries
//	GET    /releases/{id}                         → one summary
//	DELETE /releases/{id}                         → withdraw release, delete spill file
//	GET    /releases/{id}/count?q=...             → {"count": ...}
//	POST   /releases/{id}/query?parallelism=...   → streamed answers + trailer
//	       body: workload — one query spec per line (a JSON body is a
//	       415). Answers stream back as text/plain in fixed-size chunks,
//	       one per line whatever Accept says, and end with a trailer
//	       line carrying the answer count and status, so a cut stream is
//	       detectable.
//	GET    /releases/{id}/export                  → binary codec payload: the spill file as
//	                                                it is, with Content-Length, on a node
//	                                                with a store directory
//	GET    /mechanisms                            → registered mechanism names
//	GET    /stats                                 → store accounting (evictions, reloads,
//	                                                /count answer-cache hits/misses, ...) plus
//	                                                ledger counters (charges/refunds/refusals)
//	                                                and the node identity (name, start time,
//	                                                version) cluster aggregation keys on
//	GET    /healthz                               → liveness (process up)
//	GET    /readyz                                → readiness (every release registered from its
//	                                                spill-file header, ledger loaded); the
//	                                                cluster tier's probe target
//	PUT    /internal/replicate/{id}               → replica ingest: body is an encoded release
//	                                                (the /export bytes); 200 if already present,
//	                                                410 if the ID is tombstoned (deleted here)
//	POST   /internal/repair                       → run one anti-entropy sweep, return its report
//	                                                (clustered nodes only — Config.Cluster.Repair)
//
// The /internal/* endpoints are the cluster tier's trusted surface:
// when Config.Cluster.Secret is set they require Authorization: Bearer
// with that secret (401 otherwise), and a call stamped with a stale
// X-Ring-Version is refused with a typed 409 ("stale_ring") so a peer
// routing on an outdated membership list fails loudly.
//
// A publish may carry a caller-chosen single-segment ID (?id=...) — the
// cluster router uses this, since consistent-hash placement needs the
// ID before a node is picked; a taken ID is a 409.
//
// Query syntax (the q parameter and each workload spec; internal/query's
// Parse grammar): comma-separated predicates,
//
//	Age=30..49        ordinal interval (inclusive)
//	Occupation=@g3    nominal hierarchy node (roll-up)
//	Gender=#1         nominal single leaf by position
//	Occupation=#3..5  leaf-position interval (the wire form of a roll-up)
//
// Both query endpoints run the same parse→execute pipeline
// (internal/query's grammar and Batch): the count endpoint is the
// one-query case of the batch endpoint, and batch answers are
// bit-identical (float64 ==) to issuing the same specs as sequential
// /count calls — at any ?parallelism=, streamed or buffered, cached or
// not. /count goes through the release's answer cache when the store
// enables one, so repeated dashboard traffic is served from memory
// lookups; workloads answer straight from the summed-area table. A
// malformed or out-of-schema query spec is a client error
// (HTTP 400, query.ErrInvalid) on both; mid-stream failures after the
// first chunk has been flushed surface in the response trailer instead.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/ledger"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config configures a Server.
type Config struct {
	// MaxBody bounds every request body the node reads, in bytes: CSV
	// uploads, query workloads and replication pushes. ≤ 0 means the
	// default 64 MiB.
	MaxBody int64
	// Parallelism is the per-publish worker ceiling; ≤ 0 means
	// GOMAXPROCS. Releases never depend on it, so a deployment serving
	// many concurrent publishers can lower it to stop requests from
	// competing for every core while a single-tenant box keeps the
	// default.
	Parallelism int
	// Store holds the releases. nil means an unbounded in-memory store;
	// inject a spillable one (store.Config{Dir, MaxResident}) to bound
	// memory and survive restarts.
	Store *store.Store
	// Ledger gates the tenant publish endpoint. nil means an in-memory
	// ledger with unlimited budgets (spend is tracked, never refused);
	// inject one with a default budget, and a Dir so refusals survive
	// restarts.
	Ledger *ledger.Ledger
	// NodeName identifies this daemon in a cluster: it is stamped on
	// /stats (so aggregated fleet stats are attributable per node) and
	// echoed by /readyz. Empty means the OS hostname.
	NodeName string
	// Cluster wires the cluster tier's node-side surface: bearer auth
	// and ring-version checks on /internal/*, and the repair trigger.
	// The zero value means "not clustered". See ClusterConfig.
	Cluster ClusterConfig
}

// Server is an HTTP front end over a release store. The zero value is
// not usable; construct with New.
type Server struct {
	store       *store.Store
	ledger      *ledger.Ledger
	maxBody     int64
	parallelism int
	// nodeName/started/version identify this daemon instance on /stats
	// and /readyz — the attribution a cluster's aggregated stats need.
	nodeName string
	started  time.Time
	version  string
	cluster  ClusterConfig
	// nextID mints release IDs; seeded past any IDs, live or deleted,
	// recovered from the store's spill directory so a restarted daemon
	// never collides.
	nextID atomic.Int64
}

// defaultMechanism is the registry mechanism a publish request that
// omits the mechanism parameter gets.
const defaultMechanism = "privelet+"

// New returns a server over cfg.Store (or a fresh unbounded in-memory
// store when nil).
func New(cfg Config) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	st := cfg.Store
	if st == nil {
		// An in-memory store never reloads, but Put and Ingest still
		// build evaluators; give them the same worker ceiling as publishes.
		// The implicit store answers repeated queries from the default
		// answer cache (an explicit Store chooses its own bound).
		// The store config without a Dir cannot fail.
		st, _ = store.New(store.Config{Parallelism: cfg.Parallelism, AnswerCache: store.DefaultAnswerCache})
	}
	led := cfg.Ledger
	if led == nil {
		// The ledger config without a Dir cannot fail.
		led, _ = ledger.New(ledger.Config{})
	}
	name := cfg.NodeName
	if name == "" {
		name, _ = os.Hostname()
	}
	s := &Server{
		store: st, ledger: led, maxBody: cfg.MaxBody, parallelism: cfg.Parallelism,
		nodeName: name, started: time.Now(), version: buildVersion(),
		cluster: cfg.Cluster,
	}
	// Deleted IDs count too: reissuing one would clear its tombstone and
	// give a peer or client holding the old release different bytes
	// under the same ID.
	for _, id := range append(st.IDs(), st.Tombstones()...) {
		if n, ok := parseReleaseID(id); ok && n > s.nextID.Load() {
			s.nextID.Store(n)
		}
	}
	return s
}

// parseReleaseID extracts N from the server's "rN" ID scheme.
func parseReleaseID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "r") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Handler returns the HTTP handler for the server's API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /publish", s.handlePublish)
	mux.HandleFunc("POST /tenants/{tenant}/publish", s.handleTenantPublish)
	mux.HandleFunc("GET /tenants/{tenant}/budget", s.handleTenantBudget)
	mux.HandleFunc("GET /releases", s.handleList)
	mux.HandleFunc("GET /releases/{id}", s.handleGet)
	mux.HandleFunc("DELETE /releases/{id}", s.handleDelete)
	mux.HandleFunc("GET /releases/{id}/count", s.handleCount)
	mux.HandleFunc("POST /releases/{id}/query", s.handleBatchQuery)
	mux.HandleFunc("GET /releases/{id}/export", s.handleExport)
	mux.HandleFunc("GET /mechanisms", s.handleMechanisms)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("PUT /internal/replicate/{id}", s.internalOnly(s.handleReplicate))
	if s.cluster.Repair != nil {
		mux.HandleFunc("POST /internal/repair", s.internalOnly(s.handleRepair))
	}
	return mux
}

// handleHealthz is pure liveness: the process is up and the handler
// runs. Orchestrators restart on its failure; routing decisions use
// /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the store has registered every release
// from its spill-file header and the ledger is loaded, so every
// recovered release is listed and every budget is servable; each
// release's table is verified on its first read. By the time this
// handler is reachable, construction has completed both — cmd/priveletd
// answers 503 with a reason from its boot handler until then, which is
// the window cluster health probes are meant to catch.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"node":     s.nodeName,
		"releases": s.store.Len(),
	})
}

// handleReplicate is the cluster tier's replica-ingest endpoint: the
// body is an encoded release (the codec wire format — the bytes
// /export sends), read through the MaxBody limit. On a node with a
// store directory, store.Ingest streams it into the spill file of {id},
// after the checks a reload makes, and the node's own /export sends the
// same bytes; only a body whose table fails its checksum is rebuilt
// and encoded again. A node without a directory decodes the body into
// the heap. Re-pushing an existing ID answers 200 instead of 201:
// releases are immutable, so the copy is already identical and
// replication stays idempotent. The endpoint is /internal/ because it
// trusts its caller (the router) on placement — expose it only on
// networks where the routing tier lives.
func (s *Server) handleReplicate(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := store.ValidateID(id); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	err := s.store.Ingest(id, http.MaxBytesReader(w, req.Body, s.maxBody))
	switch {
	case errors.Is(err, store.ErrDuplicate):
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "already_present"})
	case errors.Is(err, store.ErrDeleted):
		// The release was deliberately withdrawn here; replication must
		// not resurrect it. 410 tells the pusher not to retry; this
		// node's repair sweep withdraws the other copies.
		writeJSON(w, http.StatusGone, map[string]string{
			"id": id, "error": err.Error(), "code": "deleted",
		})
	case err != nil:
		// A decode failure is the pusher's fault (truncated or corrupt
		// payload), not ours.
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusCreated, map[string]string{"id": id, "status": "replicated"})
	}
}

// buildVersion reports the module version stamped into the binary, or
// "devel" for local builds — enough to tell a mixed-version fleet
// apart on aggregated stats.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// summary is the JSON view of a release.
type summary struct {
	ID        string   `json:"id"`
	Mechanism string   `json:"mechanism"`
	Epsilon   float64  `json:"epsilon"`
	Rho       float64  `json:"rho"`
	Lambda    float64  `json:"lambda"`
	Bound     float64  `json:"variance_bound"`
	Entries   int      `json:"entries"`
	Attrs     []string `json:"attributes"`
	Workers   int      `json:"workers"`
	Resident  bool     `json:"resident"`
	// HeapBytes/MappedBytes split the release's resident float64 backing
	// between process heap and memory-mapped spill-file pages — the
	// observability MaxResident tuning needs (a mapped release's true
	// cost is page-cache pages, not heap).
	HeapBytes   int64 `json:"heap_bytes"`
	MappedBytes int64 `json:"mapped_bytes"`
}

func stubSummary(st store.Stub) summary {
	return summary{
		ID:          st.ID,
		Mechanism:   st.Meta.Mechanism,
		Epsilon:     st.Meta.Epsilon,
		Rho:         st.Meta.Rho,
		Lambda:      st.Meta.Lambda,
		Bound:       st.Meta.Bound,
		Entries:     st.Entries,
		Attrs:       st.Attrs,
		Workers:     st.Workers,
		Resident:    st.Resident,
		HeapBytes:   st.HeapBytes,
		MappedBytes: st.MappedBytes,
	}
}

// publishSpec is a fully parsed and validated publish request —
// everything both publish endpoints need before reading the body, so
// the ledger-gated endpoint can price the request (params.Epsilon)
// without having done any work yet.
type publishSpec struct {
	schema *dataset.Schema
	mech   privelet.Mechanism
	params privelet.Params
}

// parsePublish validates a publish request's query parameters without
// touching the body; it writes the HTTP error itself and reports
// ok=false then. Rejecting mismatches here keeps the CSV pass — the
// request's dominant cost with streaming ingest — behind all the cheap
// checks, and (on the tenant endpoint) keeps malformed requests from
// ever touching the ledger.
func (s *Server) parsePublish(w http.ResponseWriter, req *http.Request) (publishSpec, bool) {
	qp := req.URL.Query()
	schemaSpec := qp.Get("schema")
	if schemaSpec == "" {
		httpError(w, http.StatusBadRequest, "missing schema parameter")
		return publishSpec{}, false
	}
	schema, err := cli.ParseSchema(schemaSpec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return publishSpec{}, false
	}
	epsilon := 1.0
	if v := qp.Get("epsilon"); v != "" {
		if epsilon, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad epsilon: "+err.Error())
			return publishSpec{}, false
		}
	}
	var seed uint64
	if v := qp.Get("seed"); v != "" {
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return publishSpec{}, false
		}
	} else {
		seed = rng.FreshSeed()
	}
	sa := cli.SplitNonEmpty(qp.Get("sa"))
	// A literal '+' in a query string decodes to a space, so a curl-ed
	// ?mechanism=privelet+ arrives as "privelet ". No mechanism name can
	// contain a space, so mapping spaces back to '+' recovers the
	// intuitive spelling (properly-encoded %2B is unaffected).
	mechName := strings.ReplaceAll(qp.Get("mechanism"), " ", "+")
	if mechName == "" {
		mechName = defaultMechanism
	}
	mech, err := privelet.MechanismByName(mechName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return publishSpec{}, false
	}
	par, err := s.workerBudget(qp)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return publishSpec{}, false
	}
	params := privelet.Params{Epsilon: epsilon, SA: sa, Seed: seed, Parallelism: par}
	if err := privelet.ValidateParams(mech, schema, params); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return publishSpec{}, false
	}
	return publishSpec{schema: schema, mech: mech, params: params}, true
}

// runPublish streams the request body into a frequency matrix and runs
// the mechanism, returning the storable payload; it writes the HTTP
// error itself and reports ok=false then. The CSV body streams straight
// into the matrix — the server never materializes the uploaded table,
// so a publish holds O(domain) memory regardless of the row count
// (MaxBody still bounds the bytes read, as an upload-abuse guard rather
// than a memory ceiling).
func (s *Server) runPublish(w http.ResponseWriter, req *http.Request, spec publishSpec) (*codec.Payload, bool) {
	pub, err := privelet.NewPublisher(spec.schema)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if err := cli.ReadRows(spec.schema, http.MaxBytesReader(w, req.Body, s.maxBody), pub.Add); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}

	// The publish runs under the request context: when the client
	// disconnects mid-publish, the engine's workers stop at the next
	// sub-matrix boundary instead of finishing a release nobody wants.
	res, err := spec.mech.Publish(req.Context(), pub.Frequency(), spec.params)
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status is for the access log only.
		httpError(w, statusClientClosedRequest, err.Error())
		return nil, false
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	meta := codec.Meta{Mechanism: spec.mech.Name(), Epsilon: res.Epsilon, Rho: res.Rho, Lambda: res.Lambda, Bound: res.VarianceBound}
	return &codec.Payload{Meta: meta, Schema: spec.schema, Noisy: res.Noisy}, true
}

// payloadSummary builds the created-release summary from data in hand
// rather than read back from the store: a freshly-put release is
// resident by definition, and its backing — noisy matrix plus the
// summed-area table the store builds on Put — is entirely heap (mapped
// pages only appear on spill reload).
func payloadSummary(id string, p *codec.Payload, workers int) summary {
	return summary{
		ID:        id,
		Mechanism: p.Meta.Mechanism,
		Epsilon:   p.Meta.Epsilon,
		Rho:       p.Meta.Rho,
		Lambda:    p.Meta.Lambda,
		Bound:     p.Meta.Bound,
		Entries:   p.Noisy.Len(),
		Attrs:     p.Schema.Names(),
		Workers:   workers,
		Resident:  true,
		HeapBytes: 2 * 8 * int64(p.Noisy.Len()),
	}
}

func (s *Server) handlePublish(w http.ResponseWriter, req *http.Request) {
	// A caller-chosen ID (the cluster router mints IDs up front, because
	// consistent-hash placement needs the ID before a node is picked)
	// must be a plain single-segment ID: the two-segment "<tenant>/..."
	// space belongs to the ledger-gated endpoint, which prices it.
	id := req.URL.Query().Get("id")
	if id != "" {
		if strings.Contains(id, "/") {
			httpError(w, http.StatusBadRequest, "client-chosen release ids must not contain '/' (tenant releases go through /tenants/{tenant}/publish)")
			return
		}
		if err := store.ValidateID(id); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	spec, ok := s.parsePublish(w, req)
	if !ok {
		return
	}
	payload, ok := s.runPublish(w, req, spec)
	if !ok {
		return
	}
	if id == "" {
		id = fmt.Sprintf("r%d", s.nextID.Add(1))
	}
	err := s.store.Put(id, payload, spec.params.Parallelism)
	switch {
	case errors.Is(err, store.ErrDuplicate):
		httpError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, payloadSummary(id, payload, spec.params.Parallelism))
}

// tenantSummary extends the release summary with the continual-
// publication fields: which tenant/epoch the release is, and what is
// left of the budget that paid for it.
type tenantSummary struct {
	summary
	Tenant string `json:"tenant"`
	Epoch  uint64 `json:"epoch"`
	// Remaining is omitted for unlimited-budget tenants (encoding/json
	// cannot represent +Inf).
	Remaining *float64 `json:"budget_remaining,omitempty"`
}

// errResponded marks a publish whose error response is already written.
var errResponded = errors.New("server: error response already written")

// handleTenantPublish is the ledger-gated publish, run through
// ledger.Spend: params.Epsilon is charged to the tenant's budget before
// the body is read or any noise drawn (sequential composition across
// the tenant's epochs — paper §III prices each release at its ε),
// refunded if anything downstream fails, and the release is stored
// under the versioned ID "<tenant>/<epoch>". An exhausted budget is a
// typed 429, never a 500.
func (s *Server) handleTenantPublish(w http.ResponseWriter, req *http.Request) {
	tenant := req.PathValue("tenant")
	if err := ledger.ValidateTenant(tenant); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, ok := s.parsePublish(w, req)
	if !ok {
		return
	}
	var (
		payload *codec.Payload
		id      string
	)
	epoch, err := s.ledger.Spend(tenant, spec.params.Epsilon, func() error {
		var ok bool
		if payload, ok = s.runPublish(w, req, spec); !ok {
			return errResponded
		}
		return nil
	}, func(epoch uint64) error {
		id = fmt.Sprintf("%s/%d", tenant, epoch)
		return s.store.Put(id, payload, spec.params.Parallelism)
	})
	switch {
	case errors.Is(err, errResponded):
		// Spend refunded the charge; a refund's persistence error leaves
		// the in-memory balance refunded all the same.
	case errors.Is(err, ledger.ErrBudgetExhausted):
		s.budgetRefused(w, tenant, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusCreated, tenantSummary{
			summary:   payloadSummary(id, payload, spec.params.Parallelism),
			Tenant:    tenant,
			Epoch:     epoch,
			Remaining: finiteOrNil(s.ledger.Remaining(tenant)),
		})
	}
}

// budgetRefused writes the typed 429 for an exhausted budget: machine-
// readable code plus the balance, so a client can tell "come back after
// a Grant" apart from every other 4xx without string matching.
func (s *Server) budgetRefused(w http.ResponseWriter, tenant string, err error) {
	b := s.ledger.Balance(tenant)
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":     err.Error(),
		"code":      "budget_exhausted",
		"tenant":    tenant,
		"budget":    b.Budget,
		"spent":     b.Spent,
		"remaining": b.Remaining,
	})
}

// budgetView is the JSON shape of GET /tenants/{tenant}/budget.
type budgetView struct {
	Tenant string `json:"tenant"`
	Finite bool   `json:"finite"`
	// Budget and Remaining are omitted for unlimited-budget tenants
	// (encoding/json cannot represent +Inf); Finite=false marks them.
	Budget    *float64 `json:"budget,omitempty"`
	Spent     float64  `json:"spent"`
	Remaining *float64 `json:"remaining,omitempty"`
	Epoch     uint64   `json:"epoch"`
	Epochs    []string `json:"epochs"`
}

// handleTenantBudget reports a tenant's budget position and the epochs
// currently in the store. A tenant that never published reports its
// fresh default position (200, not 404): under the ledger's lazy
// accounts, "unknown" and "hasn't spent yet" are the same state.
func (s *Server) handleTenantBudget(w http.ResponseWriter, req *http.Request) {
	tenant := req.PathValue("tenant")
	if err := ledger.ValidateTenant(tenant); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	b := s.ledger.Balance(tenant)
	stubs := s.store.ListPrefix(tenant + "/")
	epochs := make([]string, 0, len(stubs))
	for _, st := range stubs {
		epochs = append(epochs, st.ID)
	}
	writeJSON(w, http.StatusOK, budgetView{
		Tenant:    b.Tenant,
		Finite:    b.Finite,
		Budget:    finiteOrNil(b.Budget),
		Spent:     b.Spent,
		Remaining: finiteOrNil(b.Remaining),
		Epoch:     b.Epoch,
		Epochs:    epochs,
	})
}

// finiteOrNil guards JSON marshalling against the unlimited budget's
// +Inf, which encoding/json rejects outright.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// statusClientClosedRequest is nginx's conventional status for requests
// aborted by the client; net/http has no official constant for it.
const statusClientClosedRequest = 499

// workerBudget resolves a request's parallelism parameter against the
// operator's ceiling — Config.Parallelism when set, capped at the
// machine's core count. Requests may lower the worker count below the
// ceiling but never raise it; an omitted or non-positive parameter means
// the ceiling itself, so ?parallelism=0 and no parameter behave
// identically and a client cannot launder 0/-1 into more workers than
// the operator allows. Shared by publish and batch query, so one knob
// governs every request-driven fan-out.
func (s *Server) workerBudget(qp url.Values) (int, error) {
	ceiling := runtime.GOMAXPROCS(0)
	if s.parallelism > 0 && s.parallelism < ceiling {
		ceiling = s.parallelism
	}
	par := ceiling
	if v := qp.Get("parallelism"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad parallelism: %v", err)
		}
		if p > 0 && p < ceiling {
			par = p
		}
	}
	return par, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	stubs := s.store.List()
	out := make([]summary, 0, len(stubs))
	for _, st := range stubs {
		out = append(out, stubSummary(st))
	}
	writeJSON(w, http.StatusOK, out)
}

// found reports whether a store call on release id succeeded. If not,
// it writes the error response: 404 for an unknown release, 500 for
// anything else.
func found(w http.ResponseWriter, id string, err error) bool {
	switch {
	case errors.Is(err, store.ErrNotFound):
		httpError(w, http.StatusNotFound, fmt.Sprintf("no release %q", id))
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		return true
	}
	return false
}

// lookup fetches the full release, transparently reloading a spilled
// one; it writes the error response itself and reports ok=false then.
func (s *Server) lookup(w http.ResponseWriter, req *http.Request) (store.Release, bool) {
	id := req.PathValue("id")
	rel, err := s.store.Get(id)
	return rel, found(w, id, err)
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	// Describe never touches disk, so listing metadata cannot thrash
	// the resident budget.
	id := req.PathValue("id")
	if stub, err := s.store.Describe(id); found(w, id, err) {
		writeJSON(w, http.StatusOK, stubSummary(stub))
	}
}

// handleDelete withdraws a release and deletes its spill file — the
// only way a spilled release's disk space is ever reclaimed. A 500
// means the release is withdrawn but its spill file could not be
// deleted.
func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if found(w, id, s.store.Remove(id)) {
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleMechanisms lists the registered publish mechanisms, so clients
// can discover what the mechanism parameter accepts.
func (s *Server) handleMechanisms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"mechanisms": privelet.Mechanisms(),
		"default":    defaultMechanism,
	})
}

func (s *Server) handleCount(w http.ResponseWriter, req *http.Request) {
	rel, ok := s.lookup(w, req)
	if !ok {
		return
	}
	q, err := query.Parse(rel.Payload.Schema, req.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The one-query case of the batch pipeline: the same executor the
	// workload endpoint uses, so the two endpoints cannot drift
	// (bit-identity pinned by tests). Only /count goes through the
	// per-release answer cache, which repeated single-count dashboard
	// traffic hits.
	answers, err := query.Batch{Eval: rel.Eval, Workers: 1, Cache: rel.Cache, Schema: rel.Payload.Schema}.Execute(req.Context(), []query.Query{q})
	if err != nil {
		httpError(w, queryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    answers[0],
		"coverage": q.Coverage(),
	})
}

// handleBatchQuery answers a whole workload in one request — the
// paper's serving shape (§VII runs 40 000 queries per experiment), for
// which per-query HTTP round trips would dominate the 2^d-lookup
// answers. The request body streams through the workload wire format
// (one spec per line) directly into query.Batch.ExecuteStream: parsing
// pipelines into execution, answers flush to the client in fixed-size
// chunks while later chunks still execute, and peak memory is
// O(chunk) — a million-query workload never exists in this process as
// a slice. Answers come back in input order, bit-identical to issuing
// the same specs as sequential /count calls. A workload does not go
// through the release's answer cache: each answer is a 2^d summed-area
// lookup on the worker pool, which costs less than the cache's serial
// key render and probe even when every probe hits.
//
// A body whose Content-Type is application/json is refused with 415:
// workloads have one format. The response is the streaming answer wire
// format (internal/workload), text/plain whatever Accept says: one
// answer per line, then a trailer carrying the delivered answer count
// and a status, so a client can distinguish a complete stream from one
// cut by an error or a dropped connection (a body without a trailer is
// truncated, full stop).
//
// Errors inside the first chunk — the whole workload, for bodies up to
// the chunk size — are reported as plain HTTP statuses, since nothing
// has been written; after the first flush the status is already on the
// wire, and a failure ends the stream with a status=error trailer
// instead.
func (s *Server) handleBatchQuery(w http.ResponseWriter, req *http.Request) {
	if strings.HasPrefix(req.Header.Get("Content-Type"), "application/json") {
		httpError(w, http.StatusUnsupportedMediaType, "a workload is one query spec per line (text/plain), not JSON")
		return
	}
	rel, ok := s.lookup(w, req)
	if !ok {
		return
	}
	par, err := s.workerBudget(req.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Answers go out while the body is still being read. Without full
	// duplex, an HTTP/1.x server that sends the headers may read and
	// drop up to 256 KiB of the body not yet read, cutting the
	// workload short. A writer that cannot do it (a test recorder) is
	// left as it is.
	_ = http.NewResponseController(w).EnableFullDuplex()
	// Close the body before returning. A workload that fails leaves part
	// of it unread, and with full duplex net/http reads that rest only in
	// its own close after the handler; reaching the end there restarts
	// the background connection read the server has just stopped, so
	// the connection goroutine panics and the client's next request on
	// it fails.
	defer req.Body.Close()
	specs := workload.NewLineSpecs(http.MaxBytesReader(w, req.Body, s.maxBody))

	aw := workload.NewAnswerLines(w)
	started := false
	flusher, _ := w.(http.Flusher)
	start := func() {
		started = true
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
	}
	sink := func(answers []float64) error {
		if !started {
			start()
		}
		if err := aw.WriteChunk(answers); err != nil {
			return err
		}
		// Flush per chunk: the client sees the first answers while the
		// rest of the workload is still parsing and executing.
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	batch := query.Batch{Eval: rel.Eval, Workers: par}
	n, err := batch.ExecuteStream(req.Context(), workload.Stream(rel.Payload.Schema, specs), sink)
	if err != nil && !started {
		// Nothing on the wire yet: report the plain status a buffered
		// endpoint would have — 400 for a bad workload, 499/500 otherwise.
		httpError(w, queryStatus(err), err.Error())
		return
	}
	if !started {
		start() // empty workload: an answerless body is still a complete one
	}
	t := workload.Trailer{Answers: n, Status: workload.StatusOK}
	if err != nil {
		t.Status = workload.StatusError
		t.Error = err.Error()
	}
	// A Close failure means the client is gone mid-trailer; there is no
	// one left to tell.
	_ = aw.Close(t)
	if flusher != nil {
		flusher.Flush()
	}
}

// queryStatus maps a query-pipeline error onto an HTTP status: a bad
// query or workload body is the client's fault (400 — tagged
// query.ErrInvalid, an over-limit body, or an over-long line), a
// cancelled request is the client gone (499), anything else is the
// server's (500) — never a 500 for a malformed predicate, never a 400
// masking an engine failure.
func queryStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, query.ErrInvalid),
		errors.As(err, &tooBig),
		errors.Is(err, bufio.ErrTooLong):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// handleExport sends a release in the codec wire format. On a node with
// a store directory the body is the release's spill file as it is
// (store.OpenSpill), with a Content-Length: the bytes Put or Ingest
// wrote, never encoded again, so a replica's export is byte-identical
// to its primary's. A node without a directory encodes the resident
// payload. Once part of the body is out, a failure can only cut the
// connection (http.ErrAbortHandler), so the client sees a truncated
// stream, never a JSON error after binary bytes.
func (s *Server) handleExport(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	f, err := s.store.OpenSpill(id)
	if !found(w, id, err) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if f != nil {
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
		// CopyN hands net/http an io.LimitedReader over the *os.File,
		// the form its sendfile path unwraps; io.Copy would not.
		if _, err := io.CopyN(w, f, st.Size()); err != nil {
			panic(http.ErrAbortHandler)
		}
		return
	}
	rel, ok := s.lookup(w, req)
	if !ok {
		return
	}
	sw := &startedWriter{w: w}
	if err := store.EncodeRelease(sw, rel.Payload); err != nil {
		if sw.started {
			// A 200 and part of the binary body are out; a JSON error
			// would follow them. Cut the connection instead, so the
			// client sees a truncated stream.
			panic(http.ErrAbortHandler)
		}
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// startedWriter records whether any Write reached w. The first Write to
// a ResponseWriter sends its status, so no error status can follow.
type startedWriter struct {
	w       http.ResponseWriter
	started bool
}

func (s *startedWriter) Write(p []byte) (int, error) {
	s.started = true
	return s.w.Write(p)
}

// nodeIdentity attributes a /stats snapshot to the daemon that
// produced it — the field a cluster's aggregated fleet view keys on.
type nodeIdentity struct {
	Name      string  `json:"name"`
	StartTime string  `json:"start_time"`
	UptimeSec float64 `json:"uptime_seconds"`
	Version   string  `json:"version"`
}

// releaseResidency is one row of /stats' "residency" list: where a
// release's resident bytes live. Spilled releases report zeros — their
// cost is a file, not memory.
type releaseResidency struct {
	ID          string `json:"id"`
	Resident    bool   `json:"resident"`
	HeapBytes   int64  `json:"heap_bytes"`
	MappedBytes int64  `json:"mapped_bytes"`
}

// handleStats reports store accounting with the ledger's counters
// nested under "ledger", the node's identity under "node", per-release
// resident bytes (mapped vs heap — the MaxResident tuning signal) under
// "residency", and — when clustered — the ring membership version and
// repair counters under "ring"; the store fields stay at the top level,
// so pre-ledger clients decoding into store.Stats keep working.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stubs := s.store.List()
	residency := make([]releaseResidency, 0, len(stubs))
	for _, st := range stubs {
		residency = append(residency, releaseResidency{
			ID:          st.ID,
			Resident:    st.Resident,
			HeapBytes:   st.HeapBytes,
			MappedBytes: st.MappedBytes,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		store.Stats
		Ledger    ledger.Stats       `json:"ledger"`
		Node      nodeIdentity       `json:"node"`
		Residency []releaseResidency `json:"residency"`
		Ring      any                `json:"ring,omitempty"`
	}{s.store.Stats(), s.ledger.Stats(), nodeIdentity{
		Name:      s.nodeName,
		StartTime: s.started.UTC().Format(time.RFC3339),
		UptimeSec: time.Since(s.started).Seconds(),
		Version:   s.version,
	}, residency, s.ringStats()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
