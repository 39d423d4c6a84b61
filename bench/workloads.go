package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/workload"
)

// scenario is one workload: a traffic mix and the program it drives. run calls prepare once, setup (timed)
// cfg.setups times with teardown between, probe, then op in a closed
// loop of clients() clients through the warm-up and the timed window,
// then finish, and with -trace 1 replay.
type scenario interface {
	// prepare builds what set-up starts from, off the clock.
	prepare(b *bench) error
	// setup starts the program: the work setup_s measures.
	setup(b *bench) error
	teardown(b *bench)
	// probe sends the probe requests (bench.probe), off the clock.
	probe(b *bench)
	clients() int
	// primary names the request kind the latency metrics describe.
	primary() string
	// op performs client c's operation i.
	op(b *bench, c, i int, r *recorder)
	// finish runs the checks that need the whole window.
	finish(b *bench) error
	// nodes lists the nodes whose store counters and spill files the
	// per-layer metrics read.
	nodes() []*node
	// replay is the traced pass: the same operations through the
	// layers' own functions.
	replay(b *bench, rp *replayer) error
}

func newScenario(name string) scenario {
	switch name {
	case "publish":
		return &publishWL{}
	case "query":
		return &queryWL{}
	case "dashboard":
		return &dashboardWL{}
	case "cluster":
		return &clusterWL{}
	}
	return nil
}

func epochID(k int, epoch uint64) string { return fmt.Sprintf("%s/%d", tenantName(k), epoch) }

// singleNode is the set-up the publish and query workloads share: one
// node over empty directories plus the probe release (tenant 0's table,
// published through POST /publish with the probe seed).
type singleNode struct {
	n   *node
	dir string
	id  string
}

func (s *singleNode) prepare(b *bench) error {
	s.dir = filepath.Join(b.dir, "node")
	_, err := b.in.csv(0)
	return err
}

func (s *singleNode) setup(b *bench) error {
	ln, err := listen()
	if err != nil {
		return err
	}
	if s.n, err = startNode("node", s.dir, 0, ln, nil); err != nil {
		return err
	}
	if err := b.cl.waitReady(s.n.url); err != nil {
		return err
	}
	cr, _, _, err := b.cl.publish(s.n.url+"/publish", b.in.tenantCSV[0], b.in.probeSeed())
	s.id = cr.ID
	return err
}

func (s *singleNode) teardown(*bench) {
	if s.n != nil {
		s.n.stop()
		s.n = nil
	}
	os.RemoveAll(s.dir)
}

func (s *singleNode) probe(b *bench)      { b.probe(s.n.url, s.id) }
func (s *singleNode) clients() int        { return 1 }
func (s *singleNode) finish(*bench) error { return nil }
func (s *singleNode) nodes() []*node      { return []*node{s.n} }
func (s *singleNode) csv(b *bench) []byte { return b.in.tenantCSV[0] }
func (s *singleNode) store() *store.Store { return s.n.store }

// publishWL: POST /publish of the census CSV, then DELETE of the new
// release (on a spilling, write-through store), in a loop.
type publishWL struct{ singleNode }

func (w *publishWL) primary() string { return "publish" }

func (w *publishWL) seed(b *bench, i int) uint64 {
	return derive(b.cfg.seed, tagPublishLoop, uint64(i))
}

func (w *publishWL) op(b *bench, _, i int, r *recorder) {
	cr, lat, ttfb, err := b.cl.publish(w.n.url+"/publish", w.csv(b), w.seed(b, i))
	r.add("publish", lat, ttfb, err)
	if err != nil {
		b.fail(err)
		return
	}
	r.work += float64(b.cfg.rows)
	err = b.cl.remove(w.n.url, cr.ID, http.StatusNoContent)
	r.request(err)
	if err != nil {
		b.fail(err)
	}
}

func (w *publishWL) replay(b *bench, rp *replayer) error {
	return rp.alternate(b.cfg.replayPublishes, nil, func(k int) error {
		id := "replay-" + strconv.Itoa(k)
		if _, err := rp.publish(w.store(), nil, "", id, w.csv(b), w.seed(b, k)); err != nil {
			return err
		}
		return rp.remove(w.store(), id)
	})
}

// queryWL: fresh 40k-query workloads streamed at the probe release.
type queryWL struct{ singleNode }

func (w *queryWL) primary() string { return "query" }

func (w *queryWL) op(b *bench, _, i int, r *recorder) {
	k := i % len(b.in.pool)
	answers, _, lat, ttfb, err := b.cl.query(w.n.url, w.id, b.in.pool[k])
	if err == nil {
		err = sameFloats("answers", answers, b.in.refAnswers[k])
	}
	r.add("query", lat, ttfb, err)
	if err != nil {
		b.fail(err)
		return
	}
	r.work += float64(len(answers))
}

func (w *queryWL) replay(b *bench, rp *replayer) error {
	return rp.alternate(b.cfg.replayQueries, nil, func(k int) error {
		k %= len(b.in.pool)
		return rp.query(w.store(), w.id, b.in.pool[k], b.in.refAnswers[k])
	})
}

// tenantState is one dashboard tenant's live epoch. Counts hold mu for
// reading while in flight; a republish takes it for writing to switch
// epochs, so no count can reach the epoch it then deletes. wmu
// serializes the tenant's republishes, which keeps the epochs the ledger
// hands out predictable (each republish gets the next one).
type tenantState struct {
	mu    sync.RWMutex
	wmu   sync.Mutex
	epoch uint64
}

// countProbe is one count checked against the reference.
type countProbe struct {
	k     int
	epoch uint64
	spec  int
	v     float64
}

// dashboardWL: Zipf counts over many tenants restarted from disk with a
// resident cap, and an occasional republish.
type dashboardWL struct {
	n       *node
	dir     string
	tenants []*tenantState
	specs   []string // the hot set, as query.Parse specs
	escaped []string // the same, escaped for the q parameter
	hotQ    []query.Query
	tz, sz  *rng.Zipfian
	src     []*rng.Source // per client

	pmu    sync.Mutex
	probes []countProbe
	refs   map[[2]uint64][]float64
}

func (w *dashboardWL) prepare(b *bench) error {
	cfg := b.cfg
	w.dir = filepath.Join(b.dir, "dashboard")
	gen, err := workload.NewGenerator(b.in.schema, maxPreds)
	if err != nil {
		return err
	}
	if w.hotQ, err = gen.Queries(cfg.hotSpecs, rng.New(derive(cfg.seed, tagHotSet))); err != nil {
		return err
	}
	for _, q := range w.hotQ {
		s := q.Spec(b.in.schema)
		w.specs = append(w.specs, s)
		w.escaped = append(w.escaped, url.QueryEscape(s))
	}
	w.tz, w.sz = rng.NewZipf(cfg.tenants, 1.1), rng.NewZipf(cfg.hotSpecs, 1.1)
	w.src = []*rng.Source{rng.New(derive(cfg.seed, tagClient, 0)), rng.New(derive(cfg.seed, tagClient, 1))}
	w.refs = map[[2]uint64][]float64{}

	ln, err := listen()
	if err != nil {
		return err
	}
	n, err := startNode("node", w.dir, cfg.maxResident, ln, nil)
	if err != nil {
		return err
	}
	defer n.stop()
	if err := b.cl.waitReady(n.url); err != nil {
		return err
	}
	for k := range cfg.tenants {
		if _, _, _, err := b.publishTenant(n.url, k, 1); err != nil {
			return err
		}
		w.tenants = append(w.tenants, &tenantState{epoch: 1})
	}
	return nil
}

// setup is a restart: store and ledger recovery over the prepared
// directories, until /readyz answers.
func (w *dashboardWL) setup(b *bench) error {
	ln, err := listen()
	if err != nil {
		return err
	}
	if w.n, err = startNode("node", w.dir, b.cfg.maxResident, ln, nil); err != nil {
		return err
	}
	return b.cl.waitReady(w.n.url)
}

func (w *dashboardWL) teardown(*bench) {
	if w.n != nil {
		w.n.stop()
		w.n = nil
	}
}

func (w *dashboardWL) probe(b *bench)  { b.probe(w.n.url, epochID(0, 1)) }
func (w *dashboardWL) clients() int    { return 2 }
func (w *dashboardWL) primary() string { return "count" }
func (w *dashboardWL) nodes() []*node  { return []*node{w.n} }
func (w *dashboardWL) isRepublish(b *bench, i int) bool {
	return i%b.cfg.republishEach == b.cfg.republishEach-1
}

func (w *dashboardWL) op(b *bench, c, i int, r *recorder) {
	k, j := w.tz.Draw(w.src[c]), w.sz.Draw(w.src[c])
	if w.isRepublish(b, i) {
		w.republish(b, k, r)
		return
	}
	t := w.tenants[k]
	t.mu.RLock()
	e := t.epoch
	v, lat, ttfb, err := b.cl.count(releaseURL(w.n.url, epochID(k, e)) + "/count?q=" + w.escaped[j])
	t.mu.RUnlock()
	r.add("count", lat, ttfb, err)
	if err != nil {
		b.fail(err)
		return
	}
	r.work++
	w.pmu.Lock()
	if len(w.probes) < b.cfg.probeCounts {
		w.probes = append(w.probes, countProbe{k, e, j, v})
	}
	w.pmu.Unlock()
}

// republish publishes tenant k's next epoch, switches the tenant's
// counts to it, and deletes the previous one.
func (w *dashboardWL) republish(b *bench, k int, r *recorder) {
	t := w.tenants[k]
	t.wmu.Lock()
	defer t.wmu.Unlock()
	old := t.epoch
	_, lat, ttfb, err := b.publishTenant(w.n.url, k, old+1)
	r.add("publish", lat, ttfb, err)
	if err != nil {
		b.fail(err)
		return
	}
	t.mu.Lock()
	t.epoch = old + 1
	t.mu.Unlock()
	err = b.cl.remove(w.n.url, epochID(k, old), http.StatusNoContent)
	r.request(err)
	if err != nil {
		b.fail(err)
	}
}

func (w *dashboardWL) finish(b *bench) error {
	w.checkCounts(b, "HTTP", w.probes)
	return nil
}

// checkCounts compares counts with the reference release of their
// tenant's epoch, float64 for float64.
func (w *dashboardWL) checkCounts(b *bench, pass string, probes []countProbe) {
	for _, p := range probes {
		key := [2]uint64{uint64(p.k), p.epoch}
		ref, ok := w.refs[key]
		if !ok {
			rel, _, err := b.in.reference(p.k, p.epoch)
			if err == nil {
				ref, err = rel.CountBatch(context.Background(), w.hotQ, 0)
			}
			if err != nil {
				b.fail(fmt.Errorf("reference for %s: %w", epochID(p.k, p.epoch), err))
				return
			}
			w.refs[key] = ref
		}
		if err := sameFloats(pass+" count", []float64{p.v}, []float64{ref[p.spec]}); err != nil {
			b.fail(fmt.Errorf("%s q=%s: %w", epochID(p.k, p.epoch), w.specs[p.spec], err))
		}
	}
}

// replay restarts from the directories the timed window left — the
// recovery is traced — and replays client 0's operations from the start
// of its sequence against the recovered store and ledger.
func (w *dashboardWL) replay(b *bench, rp *replayer) error {
	w.teardown(b)
	st, led, err := rp.recover(filepath.Join(w.dir, "spill"), filepath.Join(w.dir, "ledger"), b.cfg.maxResident)
	if err != nil {
		return err
	}
	src := rng.New(derive(b.cfg.seed, tagClient, 0))
	var probes []countProbe
	kind := func(i int) string {
		if w.isRepublish(b, i) {
			return "republish"
		}
		return "count"
	}
	err = rp.alternate(b.cfg.replayCounts, kind, func(i int) error {
		k, j := w.tz.Draw(src), w.sz.Draw(src)
		t := w.tenants[k]
		if w.isRepublish(b, i) {
			csv, err := b.in.csv(k)
			if err != nil {
				return err
			}
			id, err := rp.publish(st, led, tenantName(k), "", csv, b.in.tenantSeed(k, t.epoch+1))
			if err != nil {
				return err
			}
			if id != epochID(k, t.epoch+1) {
				return fmt.Errorf("republished %s, want %s", id, epochID(k, t.epoch+1))
			}
			t.epoch++
			return rp.remove(st, epochID(k, t.epoch-1))
		}
		v, err := rp.count(st, epochID(k, t.epoch), w.specs[j])
		if err == nil && len(probes) < b.cfg.probeCounts {
			probes = append(probes, countProbe{k, t.epoch, j, v})
		}
		return err
	})
	w.checkCounts(b, "replayed", probes)
	return err
}

// clusterWL: routed tenant publishes (replicated synchronously), routed
// deletes, and routed 40k-query workloads.
type clusterWL struct {
	r   *rig
	dir string
	// live is each tenant's live epoch; issued the last epoch its
	// primary's ledger handed out.
	live, issued []uint64
	src          *rng.Source
}

const (
	clusterNodes    = 3
	clusterReplicas = 2
	queriesPerCycle = 4
)

func (w *clusterWL) prepare(b *bench) error {
	w.dir = filepath.Join(b.dir, "cluster")
	for k := range b.cfg.clusterTenants {
		if _, err := b.in.csv(k); err != nil {
			return err
		}
	}
	w.src = rng.New(derive(b.cfg.seed, tagTargets))
	return nil
}

// setup starts the nodes and the router, then publishes every tenant's
// first epoch through the router.
func (w *clusterWL) setup(b *bench) error {
	var err error
	if w.r, err = startRig(w.dir, clusterNodes, clusterReplicas); err != nil {
		return err
	}
	if err := b.cl.waitReady(w.r.url); err != nil {
		return err
	}
	w.live = make([]uint64, b.cfg.clusterTenants)
	w.issued = make([]uint64, b.cfg.clusterTenants)
	for k := range w.live {
		if _, _, _, err := b.publishTenant(w.r.url, k, 1); err != nil {
			return err
		}
		w.live[k], w.issued[k] = 1, 1
	}
	return nil
}

func (w *clusterWL) teardown(*bench) {
	if w.r != nil {
		w.r.stop()
		w.r = nil
	}
	os.RemoveAll(w.dir)
}

func (w *clusterWL) probe(b *bench)  { b.probe(w.r.url, epochID(0, 1)) }
func (w *clusterWL) clients() int    { return 1 }
func (w *clusterWL) primary() string { return "routed_query" }
func (w *clusterWL) nodes() []*node  { return w.r.nodes }

// op is one cycle: publish tenant i mod T's next epoch, delete its
// previous one, then query random tenants' live epochs.
func (w *clusterWL) op(b *bench, _, i int, r *recorder) {
	k := i % len(w.live)
	e := w.issued[k] + 1
	_, _, _, err := b.publishTenant(w.r.url, k, e)
	r.request(err)
	if err != nil {
		b.fail(err)
		return
	}
	old := w.live[k]
	w.issued[k], w.live[k] = e, e
	err = b.cl.remove(w.r.url, epochID(k, old), http.StatusOK)
	r.request(err)
	if err != nil {
		b.fail(err)
	}
	for q := range queriesPerCycle {
		tk := w.src.Intn(len(w.live))
		answers, _, lat, ttfb, err := b.cl.query(w.r.url, epochID(tk, w.live[tk]), b.in.pool[(queriesPerCycle*i+q)%len(b.in.pool)])
		r.add("routed_query", lat, ttfb, err)
		if err != nil {
			b.fail(err)
			continue
		}
		r.work += float64(len(answers))
	}
}

// finish checks the router never had to retry or fail a replication:
// every node was healthy throughout.
func (w *clusterWL) finish(*bench) error {
	st := w.r.router.Stats()
	if st.Retries != 0 || st.ReplicationFailures != 0 || st.NoReplica != 0 {
		return fmt.Errorf("router stats %+v: want no retries, replication failures or refusals", st)
	}
	return nil
}

// replay measures the cluster tier against its own absence: each cycle
// sends a routed publish and the same publish straight to the tenant's
// primary, pushes the direct one's export to the follower by hand
// (PUT /internal/replicate), and sends each routed query again straight
// to the replica that did not serve it, whose answers must match.
func (w *clusterWL) replay(b *bench, rp *replayer) error {
	src := rng.New(derive(b.cfg.seed, tagTargets, 1))
	return rp.alternate(b.cfg.replayCycles, nil, func(i int) error {
		t := rp.t
		root := t.start("op.cycle", -1)
		defer t.finish(root)
		k := i % len(w.live)
		name := tenantName(k)
		reps := w.r.ring.ReplicasFor(cluster.RouteKey(name))
		primary, follower := w.r.nodeNamed(reps[0].Name), w.r.nodeNamed(reps[1].Name)

		routed := w.issued[k] + 1
		s := t.start("http.routed_publish", root)
		_, _, _, err := b.publishTenant(w.r.url, k, routed)
		t.finish(s)
		if err != nil {
			return err
		}
		w.issued[k] = routed
		direct := routed + 1
		s = t.start("http.direct_publish", root)
		_, _, _, err = b.publishTenant(primary.url, k, direct)
		t.finish(s)
		if err != nil {
			return err
		}
		w.issued[k] = direct
		raw, err := b.cl.export(primary.url, epochID(k, direct))
		if err != nil {
			return err
		}
		hdr := http.Header{
			"Authorization":           {"Bearer " + clusterSecret},
			cluster.RingVersionHeader: {strconv.FormatUint(w.r.ring.Version(), 10)},
			"Content-Type":            {"application/octet-stream"},
		}
		s = t.start("replicate", root)
		_, _, err = b.cl.call(http.MethodPut, follower.url+"/internal/replicate/"+url.PathEscape(epochID(k, direct)), raw, hdr, http.StatusCreated, nil)
		t.finish(s)
		if err != nil {
			return err
		}
		// Retire the direct epoch and the previous routed one, leaving one
		// live epoch per tenant as in the timed window.
		for _, e := range []uint64{direct, w.live[k]} {
			if err := b.cl.remove(w.r.url, epochID(k, e), http.StatusOK); err != nil {
				return err
			}
		}
		w.live[k] = routed

		for q := range queriesPerCycle {
			tk := src.Intn(len(w.live))
			id := epochID(tk, w.live[tk])
			qs := b.in.pool[(queriesPerCycle*i+q)%len(b.in.pool)]
			s = t.start("http.routed_query", root)
			got, served, _, _, err := b.cl.query(w.r.url, id, qs)
			t.finish(s)
			if err != nil {
				return err
			}
			// The other replica has not seen these specs, so neither
			// request is answered from an answer cache the other filled.
			var other *node
			found := false
			for _, n := range w.r.ring.ReplicasFor(cluster.RouteKey(tenantName(tk))) {
				if n.Name == served {
					found = true
				} else {
					other = w.r.nodeNamed(n.Name)
				}
			}
			if !found || other == nil {
				return fmt.Errorf("routed query of %s answered by %q, not one of its replicas", id, served)
			}
			s = t.start("http.direct_query", root)
			want, _, _, _, err := b.cl.query(other.url, id, qs)
			t.finish(s)
			if err != nil {
				return err
			}
			if err := sameFloats("routed vs direct answers", got, want); err != nil {
				return err
			}
		}
		return nil
	})
}
