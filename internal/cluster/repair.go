package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// DefaultRepairInterval is the background anti-entropy sweep period
// when RepairConfig.Interval is not set. Thirty seconds bounds how long
// a recovered node stays under-replicated without letting the sweeps'
// peer listings become meaningful load.
const DefaultRepairInterval = 30 * time.Second

// DefaultRepairTimeout bounds one repair HTTP call (a peer listing, an
// export, a delete).
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
	// Secret is not read. A sweep calls only its peers' public
	// endpoints, so it sends no bearer token; the field stays because
	// the end-to-end benchmark still sets it.
	Secret string
}

// RepairStats is the repairer's accounting, nested under "ring.repair"
// in the node's /stats response.
type RepairStats struct {
	// Sweeps counts completed sweep passes (background and on-demand).
	Sweeps int64 `json:"sweeps"`
	// Pulled counts copies fetched because this node was a missing
	// replica.
	Pulled int64 `json:"pulled"`
	// DeletesPropagated counts peer copies withdrawn because this node
	// holds a tombstone for them.
	DeletesPropagated int64 `json:"deletes_propagated"`
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
// exactly what moved. Entries are "id←node" (pulled from node) or
// "id@node" (deleted on node); all lists are sorted.
type RepairReport struct {
	Node              string   `json:"node"`
	RingVersion       uint64   `json:"ring_version"`
	Scanned           int      `json:"scanned"`
	Pulled            []string `json:"pulled,omitempty"`
	DeletesPropagated []string `json:"deletes_propagated,omitempty"`
	Unreachable       []string `json:"unreachable,omitempty"`
	Errors            []string `json:"errors,omitempty"`
}

// Repairer is a node's anti-entropy loop: it diffs actual release
// placement (its own store plus every peer's /releases listing) against
// the ring's intended placement and converges its own side of the two.
// A sweep does two jobs, each in one direction: it pulls every release
// this node should hold but lacks, from any holder's public /export,
// and it DELETEs the releases this node tombstoned on every peer that
// still lists them. It never pushes: a copy moves only when the lacking
// node pulls it, and a delete only when the tombstone holder sends it.
//
// Releases are immutable (the paper's publish-once model: ε is spent
// when the noisy matrix is computed, the bytes never change), so repair
// is pure file copying and always converges: a copy is either present
// and bit-identical or absent, never stale. The only ordering hazard is
// deletion, which the store's tombstones resolve — a tombstone beats a
// copy, everywhere, until the ID is deliberately republished.
//
// Every node runs one. Construct with NewRepairer; all methods are safe
// for concurrent use.
type Repairer struct {
	cfg    RepairConfig
	client *http.Client

	// sweepMu serializes sweeps: the background loop and on-demand
	// POST /internal/repair triggers queue behind one another instead of
	// fetching the same copy twice.
	sweepMu sync.Mutex

	sweeps      atomic.Int64
	pulled      atomic.Int64
	deletes     atomic.Int64
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
		Pulled:            r.pulled.Load(),
		DeletesPropagated: r.deletes.Load(),
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
// node should finish its own recovery traffic before it starts copying
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

// Sweep runs one full anti-entropy pass and reports what it did. A
// sweep never fails as a whole: unreachable peers and failed transfers
// are recorded in the report (and the stats) while the rest of the diff
// proceeds — partial repair now beats complete repair never.
func (r *Repairer) Sweep(ctx context.Context) (RepairReport, error) {
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	rep := RepairReport{Node: r.cfg.Self, RingVersion: r.cfg.Ring.Version()}

	// Observe placement: our own store and every reachable peer's
	// listing, each ID's holders in ring name order.
	var self Node
	held := make(map[string][]Node)
	for _, n := range r.cfg.Ring.Nodes() {
		var ids []string
		if n.Name == r.cfg.Self {
			self, ids = n, r.cfg.Store.IDs()
		} else {
			var err error
			if ids, err = r.listPeer(ctx, n); err != nil {
				rep.Unreachable = append(rep.Unreachable, n.Name)
				continue
			}
		}
		for _, id := range ids {
			held[id] = append(held[id], n)
		}
	}

	// Finish deletes first: any copy a peer still lists of an ID we
	// tombstoned is a delete that peer slept through.
	tombs := make(map[string]bool)
	for _, id := range r.cfg.Store.Tombstones() {
		tombs[id] = true
		for _, n := range held[id] {
			if n == self {
				continue
			}
			if err := r.deleteOn(ctx, n.URL, id); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("delete %s@%s: %v", id, n.Name, err))
				r.errs.Add(1)
				continue
			}
			rep.DeletesPropagated = append(rep.DeletesPropagated, id+"@"+n.Name)
			r.deletes.Add(1)
		}
	}

	// Pull every live release we are an intended replica of but lack.
	for id, holders := range held {
		if tombs[id] {
			continue
		}
		rep.Scanned++
		intended := r.cfg.Ring.ReplicasFor(RouteKey(id))
		if slices.Contains(intended, self) && !slices.Contains(holders, self) {
			r.pullCopy(ctx, &rep, id, intended, holders)
		}
	}

	sort.Strings(rep.Pulled)
	sort.Strings(rep.DeletesPropagated)
	sort.Strings(rep.Unreachable)
	r.sweeps.Add(1)
	r.lastScanned.Store(int64(rep.Scanned))
	r.lastSweep.Store(time.Now().UnixNano())
	return rep, nil
}

// pullCopy fetches id from the first holder that serves it and ingests
// it locally. Intended replicas come first — their copy is where the
// ring says to read — then holders outside the replica set, as a
// membership change leaves them.
func (r *Repairer) pullCopy(ctx context.Context, rep *RepairReport, id string, intended, holders []Node) {
	order := make([]Node, 0, len(holders))
	for _, n := range intended {
		if slices.Contains(holders, n) {
			order = append(order, n)
		}
	}
	for _, n := range holders {
		if !slices.Contains(intended, n) {
			order = append(order, n)
		}
	}
	for _, n := range order {
		err := r.pull(ctx, n.URL, id)
		switch {
		case err == nil, errors.Is(err, store.ErrDuplicate):
			rep.Pulled = append(rep.Pulled, id+"←"+n.Name)
			r.pulled.Add(1)
			return
		case errors.Is(err, store.ErrDeleted):
			return // tombstoned locally since the scan began
		default:
			rep.Errors = append(rep.Errors, fmt.Sprintf("pull %s←%s: %v", id, n.Name, err))
			r.errs.Add(1)
		}
	}
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
	return r.cfg.Store.Ingest(id, limitBody(resp.Body, repairMaxBody))
}

// deleteOn withdraws id from a peer still holding a tombstoned copy.
// The peer's own Remove tombstones it there, so the delete keeps
// propagating even if that peer can only reach a third replica.
func (r *Repairer) deleteOn(ctx context.Context, baseURL, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, baseURL+"/releases/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
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
