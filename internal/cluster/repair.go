package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// RingVersionHeader carries the sender's ring membership version on
// every internal call (replication pushes, repair triggers). A receiver
// whose own ring is newer refuses the call with a typed 409, so a
// router or repairer running an outdated peer list fails loudly instead
// of shipping copies to stale placement. internal/server checks the
// header under the same name.
const RingVersionHeader = "X-Ring-Version"

// DefaultRepairInterval is the background anti-entropy sweep period
// when RepairConfig.Interval is not set. Thirty seconds bounds how long
// a recovered node stays under-replicated without letting the sweeps'
// peer listings become meaningful load.
const DefaultRepairInterval = 30 * time.Second

// DefaultRepairTimeout bounds one repair HTTP call (a peer listing, an
// export, a push).
const DefaultRepairTimeout = 30 * time.Second

// repairMaxBody bounds the bytes read from one peer listing or one
// pulled release.
const repairMaxBody = 64 << 20

// RepairConfig configures a node's Repairer.
type RepairConfig struct {
	// Self is this node's ring name. Required, and must be a ring member.
	Self string
	// Ring is the placement authority the sweep diffs against. Required.
	Ring *Ring
	// Store is this node's release store. Required.
	Store *store.Store
	// Interval between background sweeps; ≤ 0 means
	// DefaultRepairInterval. The interval only matters to Start — an
	// on-demand Sweep ignores it.
	Interval time.Duration
	// Secret is the cluster's shared bearer token, sent on pushes to
	// peers' /internal/replicate endpoints. Must match the peers'
	// -cluster-secret; empty only works against unauthenticated peers.
	Secret string
}

// RepairStats is the repairer's accounting, nested under "ring.repair"
// in the node's /stats response.
type RepairStats struct {
	// Sweeps counts completed sweep passes (background and on-demand).
	Sweeps int64 `json:"sweeps"`
	// Pushed counts copies shipped to under-replicated peers; Pulled
	// counts copies fetched because this node was the missing replica.
	Pushed int64 `json:"pushed"`
	Pulled int64 `json:"pulled"`
	// DeletesPropagated counts replica copies withdrawn because this
	// node holds a tombstone for them; TombstonesAdopted counts local
	// copies withdrawn because a peer refused a push with "deleted".
	DeletesPropagated int64 `json:"deletes_propagated"`
	TombstonesAdopted int64 `json:"tombstones_adopted"`
	// Errors counts failed repair actions (unreachable peers are not
	// errors — they are the condition repair exists for).
	Errors int64 `json:"errors"`
	// LastSweep is the RFC3339 time the last sweep finished, empty
	// before the first one; LastScanned is how many distinct release IDs
	// it considered.
	LastSweep   string `json:"last_sweep,omitempty"`
	LastScanned int64  `json:"last_scanned"`
}

// RepairReport is one sweep's outcome — the response body of
// POST /internal/repair, so an operator triggering repair by hand sees
// exactly what moved. Entries are "id→node" (pushed), "id←node"
// (pulled), "id@node" (delete propagated), or plain IDs (tombstones
// adopted); all lists are sorted.
type RepairReport struct {
	Node              string   `json:"node"`
	RingVersion       uint64   `json:"ring_version"`
	Scanned           int      `json:"scanned"`
	Pushed            []string `json:"pushed,omitempty"`
	Pulled            []string `json:"pulled,omitempty"`
	DeletesPropagated []string `json:"deletes_propagated,omitempty"`
	TombstonesAdopted []string `json:"tombstones_adopted,omitempty"`
	Unreachable       []string `json:"unreachable,omitempty"`
	Errors            []string `json:"errors,omitempty"`
}

// Repairer is a node's anti-entropy loop: it diffs actual release
// placement (its own store plus every peer's /releases listing) against
// the ring's intended placement and converges the two — re-shipping
// missing copies through the same PUT /internal/replicate chokepoint
// synchronous replication uses, pulling copies this node itself is
// missing, and finishing DELETEs that replicas slept through.
//
// Releases are immutable (the paper's publish-once model: ε is spent
// when the noisy matrix is computed, the bytes never change), so repair
// is pure file shipping and always converges: a copy is either present
// and bit-identical or absent, never stale. The only ordering hazard is
// deletion, which the store's tombstones resolve — a tombstone beats a
// copy, everywhere, until the ID is deliberately republished.
//
// Every node runs one; any node's sweep fixes any under-replication it
// can see, and duplicate shipping between concurrent sweeps is
// harmless (the ingest path is idempotent). Construct with NewRepairer;
// all methods are safe for concurrent use.
type Repairer struct {
	cfg    RepairConfig
	client *http.Client

	// sweepMu serializes sweeps: the background loop and on-demand
	// POST /internal/repair triggers queue behind one another instead of
	// shipping the same diff twice.
	sweepMu sync.Mutex

	sweeps      atomic.Int64
	pushed      atomic.Int64
	pulled      atomic.Int64
	deletes     atomic.Int64
	adopted     atomic.Int64
	errs        atomic.Int64
	lastSweep   atomic.Int64 // unix nanos, 0 = never
	lastScanned atomic.Int64

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewRepairer builds a repairer for the node named cfg.Self.
func NewRepairer(cfg RepairConfig) (*Repairer, error) {
	if cfg.Ring == nil || cfg.Store == nil {
		return nil, fmt.Errorf("cluster: repairer needs a Ring and a Store")
	}
	if !cfg.Ring.Contains(cfg.Self) {
		return nil, fmt.Errorf("cluster: repairer node %q is not in the ring", cfg.Self)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultRepairInterval
	}
	return &Repairer{cfg: cfg, client: &http.Client{Timeout: DefaultRepairTimeout}}, nil
}

// Stats returns the repairer's counters.
func (r *Repairer) Stats() RepairStats {
	st := RepairStats{
		Sweeps:            r.sweeps.Load(),
		Pushed:            r.pushed.Load(),
		Pulled:            r.pulled.Load(),
		DeletesPropagated: r.deletes.Load(),
		TombstonesAdopted: r.adopted.Load(),
		Errors:            r.errs.Load(),
		LastScanned:       r.lastScanned.Load(),
	}
	if ns := r.lastSweep.Load(); ns != 0 {
		st.LastSweep = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return st
}

// Start launches the background sweep loop; Stop ends it. The first
// sweep runs one full interval (plus jitter) after Start — a restarting
// node should finish its own recovery traffic before it starts shipping
// files. Each cycle waits Interval plus a fresh uniform draw from
// [0, Interval/10): nodes that came up together (a fleet-wide restart,
// the exact moment sweeps are busiest) drift apart instead of listing
// every peer's /releases in lockstep forever.
func (r *Repairer) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	go func() {
		defer close(done)
		t := time.NewTimer(r.cfg.Interval + r.jitter())
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = r.Sweep(context.Background())
				t.Reset(r.cfg.Interval + r.jitter())
			}
		}
	}()
}

// jitter draws one cycle's random scheduling offset, in
// [0, Interval/10). An Interval under 10 ns leaves no room for an
// offset, and rand.N panics on 0, so it gets none.
func (r *Repairer) jitter() time.Duration {
	span := r.cfg.Interval / 10
	if span <= 0 {
		return 0
	}
	return rand.N(span)
}

// Stop ends the background loop and waits for it to exit. Safe to call
// without Start, or twice.
func (r *Repairer) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// holdings is the sweep's observed placement: release ID → set of node
// names seen holding a copy.
type holdings map[string]map[string]bool

func (h holdings) add(id, node string) {
	m := h[id]
	if m == nil {
		m = make(map[string]bool, 2)
		h[id] = m
	}
	m[node] = true
}

// Sweep runs one full anti-entropy pass and reports what it did. A
// sweep never fails as a whole: unreachable peers and failed shipments
// are recorded in the report (and the stats) while the rest of the diff
// proceeds — partial repair now beats complete repair never.
func (r *Repairer) Sweep(ctx context.Context) (RepairReport, error) {
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	rep := RepairReport{Node: r.cfg.Self, RingVersion: r.cfg.Ring.Version()}

	// Observe placement: our own store, then every peer's listing.
	held := make(holdings)
	for _, id := range r.cfg.Store.IDs() {
		held.add(id, r.cfg.Self)
	}
	reachable := map[string]bool{r.cfg.Self: true}
	var peerURL = make(map[string]string)
	for _, n := range r.cfg.Ring.Nodes() {
		if n.Name == r.cfg.Self {
			continue
		}
		peerURL[n.Name] = n.URL
		ids, err := r.listPeer(ctx, n)
		if err != nil {
			rep.Unreachable = append(rep.Unreachable, n.Name)
			continue
		}
		reachable[n.Name] = true
		for _, id := range ids {
			held.add(id, n.Name)
		}
	}

	// Finish deletes first: a tombstoned ID must not be re-shipped, and
	// any copy a peer still lists is a delete that node slept through.
	tombs := make(map[string]bool)
	for _, id := range r.cfg.Store.Tombstones() {
		tombs[id] = true
		for peer := range held[id] {
			if peer == r.cfg.Self || !reachable[peer] {
				continue
			}
			if err := r.deleteOn(ctx, peerURL[peer], id); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("delete %s@%s: %v", id, peer, err))
				r.errs.Add(1)
				continue
			}
			rep.DeletesPropagated = append(rep.DeletesPropagated, id+"@"+peer)
			r.deletes.Add(1)
		}
	}

	// Converge every observed release toward its intended replica set.
	for id, holders := range held {
		if tombs[id] {
			continue
		}
		rep.Scanned++
		intended := r.cfg.Ring.ReplicasFor(RouteKey(id))
		if holders[r.cfg.Self] {
			r.pushMissing(ctx, &rep, id, intended, holders, peerURL)
			continue
		}
		for _, n := range intended {
			if n.Name != r.cfg.Self {
				continue
			}
			// We are an intended replica without a copy: pull one.
			r.pullCopy(ctx, &rep, id, intended, holders, peerURL)
			break
		}
	}

	sort.Strings(rep.Pushed)
	sort.Strings(rep.Pulled)
	sort.Strings(rep.DeletesPropagated)
	sort.Strings(rep.TombstonesAdopted)
	sort.Strings(rep.Unreachable)
	r.sweeps.Add(1)
	r.lastScanned.Store(int64(rep.Scanned))
	r.lastSweep.Store(time.Now().UnixNano())
	return rep, nil
}

// pushMissing ships id to intended replicas that lack a copy, but only
// when this node is the designated shipper — the first intended replica
// observed holding the release (falling back to the first holder in
// ring name order when no intended node has it yet, e.g. right after a
// membership change). One shipper per release keeps concurrent sweeps
// from flooding a recovered node with R-1 identical pushes; the rule
// needs no coordination because every node computes it from the same
// observations, and a stale observation at worst double-ships into the
// idempotent ingest path.
func (r *Repairer) pushMissing(ctx context.Context, rep *RepairReport, id string, intended []Node, holders map[string]bool, peerURL map[string]string) {
	shipper := ""
	for _, n := range intended {
		if holders[n.Name] {
			shipper = n.Name
			break
		}
	}
	if shipper == "" {
		names := make([]string, 0, len(holders))
		for name := range holders {
			names = append(names, name)
		}
		sort.Strings(names)
		shipper = names[0]
	}
	if shipper != r.cfg.Self {
		return
	}
	// Attempt every lacking intended replica, even one whose listing
	// failed — a node that could not answer /releases may still accept a
	// push, and the idempotent ingest makes optimism free.
	var payload []byte // encoded lazily, once, only if something is missing
	for _, n := range intended {
		if n.Name == r.cfg.Self || holders[n.Name] {
			continue
		}
		if payload == nil {
			var err error
			if payload, err = r.encodeLocal(id); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("encode %s: %v", id, err))
				r.errs.Add(1)
				return
			}
		}
		switch err := pushReplica(ctx, r.client, r.cfg.Secret, r.cfg.Ring, n, id, payload); {
		case err == nil:
			rep.Pushed = append(rep.Pushed, id+"→"+n.Name)
			r.pushed.Add(1)
		case errors.Is(err, errPeerDeleted):
			// The peer holds a tombstone we missed: adopt it. Our Remove
			// tombstones locally, so the delete keeps propagating.
			if rerr := r.cfg.Store.Remove(id); rerr == nil {
				rep.TombstonesAdopted = append(rep.TombstonesAdopted, id)
				r.adopted.Add(1)
			}
			return
		default:
			rep.Errors = append(rep.Errors, fmt.Sprintf("push %s→%s: %v", id, n.Name, err))
			r.errs.Add(1)
		}
	}
}

// pullCopy fetches id from the first observed holder (intended replicas
// preferred — their copy is where the ring says to read) and ingests it
// locally.
func (r *Repairer) pullCopy(ctx context.Context, rep *RepairReport, id string, intended []Node, holders map[string]bool, peerURL map[string]string) {
	order := make([]string, 0, len(holders))
	for _, n := range intended {
		if holders[n.Name] {
			order = append(order, n.Name)
		}
	}
	extra := make([]string, 0, len(holders))
	for name := range holders {
		if !contains(order, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)
	for _, holder := range order {
		url, ok := peerURL[holder]
		if !ok {
			continue
		}
		err := r.pull(ctx, url, id)
		switch {
		case err == nil, errors.Is(err, store.ErrDuplicate):
			rep.Pulled = append(rep.Pulled, id+"←"+holder)
			r.pulled.Add(1)
			return
		case errors.Is(err, store.ErrDeleted):
			return // tombstoned locally since the scan began
		default:
			rep.Errors = append(rep.Errors, fmt.Sprintf("pull %s←%s: %v", id, holder, err))
			r.errs.Add(1)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// listPeer fetches a peer's release ID listing.
func (r *Repairer) listPeer(ctx context.Context, n Node) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/releases", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing %s: status %d", n.Name, resp.StatusCode)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, repairMaxBody)).Decode(&list); err != nil {
		return nil, fmt.Errorf("listing %s: %w", n.Name, err)
	}
	ids := make([]string, 0, len(list))
	for _, e := range list {
		if e.ID != "" {
			ids = append(ids, e.ID)
		}
	}
	return ids, nil
}

// encodeLocal renders the node's own copy of id to the codec wire
// bytes a replicate push carries.
func (r *Repairer) encodeLocal(id string) ([]byte, error) {
	rel, err := r.cfg.Store.Get(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.EncodeRelease(&buf, rel.Payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// errPeerDeleted marks a push refused because the peer tombstoned the
// release (HTTP 410) — the signal to adopt the delete rather than keep
// re-shipping a withdrawn release.
var errPeerDeleted = errors.New("cluster: peer reports release deleted")

// pushReplica ships one encoded release into n's store with PUT
// /internal/replicate/{id} — the router's synchronous replication and
// the repairer's pushes both go through it. The request is stamped by
// stampInternal, so a node running a newer membership refuses the copy
// instead of accepting stale placement. 200 and 201 are success; 410
// (the peer tombstoned the release) returns errPeerDeleted.
func pushReplica(ctx context.Context, client *http.Client, secret string, ring *Ring, n Node, id string, payload []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, n.URL+"/internal/replicate/"+url.PathEscape(id), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	stampInternal(req, secret, ring)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	switch {
	case resp.StatusCode == http.StatusCreated, resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusGone:
		return errPeerDeleted
	default:
		return fmt.Errorf("status %d", resp.StatusCode)
	}
}

// pull fetches id's encoded payload from a holder's public export
// endpoint and ingests it into the local store.
func (r *Repairer) pull(ctx context.Context, baseURL, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/releases/"+url.PathEscape(id)+"/export", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("export status %d", resp.StatusCode)
	}
	return r.cfg.Store.Ingest(id, io.LimitReader(resp.Body, repairMaxBody))
}

// deleteOn withdraws id from a peer still holding a tombstoned copy.
// The peer's own Remove tombstones it there, so the delete keeps
// propagating even if that peer can only reach a third replica.
func (r *Repairer) deleteOn(ctx context.Context, baseURL, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, baseURL+"/releases/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	stampInternal(req, r.cfg.Secret, r.cfg.Ring)
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// stampInternal adds the cluster bearer token (when one is set) and the
// sender's ring version to a request for a peer's /internal endpoint.
func stampInternal(req *http.Request, secret string, ring *Ring) {
	if secret != "" {
		req.Header.Set("Authorization", "Bearer "+secret)
	}
	req.Header.Set(RingVersionHeader, fmt.Sprintf("%d", ring.Version()))
}
