package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// clusterSecret is the cluster workload's shared bearer token.
const clusterSecret = "bench-secret"

// node is one in-process daemon: internal/server over a spilling
// internal/store (answer cache at its default) and a durable
// internal/ledger, served on a loopback listener — what cmd/priveletd
// wires in node mode.
type node struct {
	name   string
	url    string
	dir    string
	store  *store.Store
	hs     *http.Server
	served chan struct{}
}

// startNode opens the node's store and ledger under dir, recovering
// whatever an earlier node left there, and serves them on ln. A non-nil
// ring makes the node a cluster member: internal calls need
// clusterSecret, and POST /internal/repair runs a sweep on demand (there
// is no background repair loop).
func startNode(name, dir string, maxResident int, ln net.Listener, ring *cluster.Ring) (*node, error) {
	st, err := store.New(store.Config{Dir: filepath.Join(dir, "spill"), MaxResident: maxResident, AnswerCache: store.DefaultAnswerCache})
	if err != nil {
		ln.Close()
		return nil, err
	}
	led, err := ledger.New(ledger.Config{Dir: filepath.Join(dir, "ledger")})
	if err != nil {
		ln.Close()
		return nil, err
	}
	var cc server.ClusterConfig
	if ring != nil {
		rep, err := cluster.NewRepairer(cluster.RepairConfig{Self: name, Ring: ring, Store: st, Secret: clusterSecret})
		if err != nil {
			ln.Close()
			return nil, err
		}
		cc = server.ClusterConfig{
			Secret: clusterSecret, RingVersion: ring.Version(),
			Repair:      func(ctx context.Context) (any, error) { return rep.Sweep(ctx) },
			RepairStats: func() any { return rep.Stats() },
		}
	}
	srv := server.New(server.Config{Store: st, Ledger: led, NodeName: name, Cluster: cc})
	n := &node{
		name: name, url: "http://" + ln.Addr().String(), dir: dir, store: st,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return n, nil
}

// stop closes the node's listener and connections and waits for its
// serve loop to return. The store and ledger need no closing: every
// write they make is complete when the call that made it returns.
func (n *node) stop() {
	_ = n.hs.Close()
	<-n.served
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// rig is the cluster workload's deployment: nodes behind a router with
// health probing, all in this process.
type rig struct {
	nodes  []*node
	ring   *cluster.Ring
	health *cluster.Health
	router *cluster.Router
	url    string
	hs     *http.Server
	served chan struct{}
}

// startRig starts n nodes and a router placing every release on
// replicas of them.
func startRig(dir string, n, replicas int) (*rig, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			closeAll(lns[:i])
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	ring, err := cluster.NewVersionedRing(peers, replicas, 1)
	if err != nil {
		closeAll(lns)
		return nil, err
	}
	r := &rig{ring: ring, served: make(chan struct{})}
	for i, p := range peers {
		nd, err := startNode(p.Name, filepath.Join(dir, p.Name), 0, lns[i], ring)
		if err != nil {
			closeAll(lns[i+1:])
			r.stopNodes()
			return nil, err
		}
		r.nodes = append(r.nodes, nd)
	}
	r.health = cluster.NewHealth(peers, cluster.HealthConfig{})
	r.health.Start()
	if r.router, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring, Health: r.health, Secret: clusterSecret}); err != nil {
		r.health.Stop()
		r.stopNodes()
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		r.health.Stop()
		r.stopNodes()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln)
	}()
	return r, nil
}

func (r *rig) stop() {
	_ = r.hs.Close()
	<-r.served
	r.health.Stop()
	r.stopNodes()
	// The router forwards with http.DefaultClient; its idle connections
	// point at the nodes just closed.
	http.DefaultClient.CloseIdleConnections()
}

func (r *rig) stopNodes() {
	for _, n := range r.nodes {
		n.stop()
	}
}

// nodeNamed returns the rig's node called name.
func (r *rig) nodeNamed(name string) *node {
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// sample is one timed request, in seconds. A failed request has an
// infinite latency, so it misses every latency limit.
type sample struct{ lat, ttfb float64 }

// recorder collects one client's requests.
type recorder struct {
	samples   map[string][]sample // by request kind
	attempted int64
	failed    int64
	// work counts the units a workload's throughput is measured in:
	// rows ingested, answers received, or counts answered.
	work float64
}

func (r *recorder) add(kind string, lat, ttfb time.Duration, err error) {
	if r.samples == nil {
		r.samples = map[string][]sample{}
	}
	r.request(err)
	s := sample{lat.Seconds(), ttfb.Seconds()}
	if err != nil {
		s = sample{math.Inf(1), math.Inf(1)}
	}
	r.samples[kind] = append(r.samples[kind], s)
}

// request counts an untimed request (a DELETE beside a publish).
func (r *recorder) request(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func (r *recorder) merge(o *recorder) {
	if r.samples == nil {
		r.samples = map[string][]sample{}
	}
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.work += o.work
}

// latencies returns the sorted latencies and times to first byte of
// kind, in milliseconds.
func (r *recorder) latencies(kind string) (lat, ttfb []float64) {
	for _, s := range r.samples[kind] {
		lat = append(lat, s.lat*1e3)
		ttfb = append(ttfb, s.ttfb*1e3)
	}
	return sortedCopy(lat), sortedCopy(ttfb)
}

// closedLoop runs clients goroutines, each sending its next operation
// only after the previous one completed, until d has passed. next[c] is
// client c's operation counter, carried across calls so the timed
// window continues the warm-up's sequence. It returns the merged
// records and the time from the start to the end of the last operation.
func closedLoop(clients int, d time.Duration, next []int, op func(c, i int, r *recorder)) (recorder, time.Duration) {
	recs := make([]recorder, clients)
	ends := make([]time.Time, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c, next[c], &recs[c])
				next[c]++
			}
			ends[c] = time.Now()
		}()
	}
	wg.Wait()
	var all recorder
	end := start
	for c := range recs {
		all.merge(&recs[c])
		if ends[c].After(end) {
			end = ends[c]
		}
	}
	return all, end.Sub(start)
}

// client is the benchmark's HTTP client: one transport with at most two
// connections per host.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}}
}

// firstByte records when the first response byte was read.
type firstByte struct {
	r  io.Reader
	at time.Time
}

func (f *firstByte) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.at.IsZero() {
		f.at = time.Now()
	}
	return n, err
}

// call sends one request and hands the headers and body of a
// want-status response to read (nil discards the body). It returns the
// time from sending to the end of read and to the first response byte.
func (c *client) call(method, u string, body []byte, hdr http.Header, want int, read func(http.Header, io.Reader) error) (lat, ttfb time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	fb := &firstByte{r: resp.Body}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(fb, 512))
		return 0, 0, fmt.Errorf("%s %s: status %d, want %d: %s", method, u, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if read != nil {
		err = read(resp.Header, fb)
	}
	// Drain what read left so the connection is reused.
	if _, cerr := io.Copy(io.Discard, fb); err == nil && cerr != nil {
		err = cerr
	}
	end := time.Now()
	if fb.at.IsZero() {
		fb.at = end
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", method, u, err)
	}
	return end.Sub(start), fb.at.Sub(start), err
}

// created is the part of a publish's 201 body the benchmark reads.
type created struct {
	ID      string `json:"id"`
	Epoch   uint64 `json:"epoch"`
	Entries int    `json:"entries"`
}

// publish POSTs csv to a publish endpoint (…/publish or
// …/tenants/{t}/publish) with the benchmark's release parameters.
func (c *client) publish(endpoint string, csv []byte, seed uint64) (created, time.Duration, time.Duration, error) {
	q := url.Values{"schema": {schemaSpec}, "epsilon": {"1"}, "sa": {saParam}, "seed": {strconv.FormatUint(seed, 10)}}
	var cr created
	lat, ttfb, err := c.call(http.MethodPost, endpoint+"?"+q.Encode(), csv, nil, http.StatusCreated, func(_ http.Header, r io.Reader) error {
		return json.NewDecoder(r).Decode(&cr)
	})
	if err == nil && (cr.ID == "" || cr.Entries != cells) {
		err = fmt.Errorf("POST %s: created %+v, want an id and %d entries", endpoint, cr, cells)
	}
	return cr, lat, ttfb, err
}

// cells is the census release's entry count.
const cells = 64 * 2 * 64 * 64

// publishTenant publishes tenant k's epoch through base (a node or the
// router) and checks the server assigned that epoch.
func (b *bench) publishTenant(base string, k int, epoch uint64) (created, time.Duration, time.Duration, error) {
	csv, err := b.in.csv(k)
	if err != nil {
		return created{}, 0, 0, err
	}
	cr, lat, ttfb, err := b.cl.publish(base+"/tenants/"+tenantName(k)+"/publish", csv, b.in.tenantSeed(k, epoch))
	if err == nil && cr.Epoch != epoch {
		err = fmt.Errorf("tenant %s published epoch %d, want %d", tenantName(k), cr.Epoch, epoch)
	}
	return cr, lat, ttfb, err
}

func releaseURL(base, id string) string { return base + "/releases/" + url.PathEscape(id) }

var acceptLines = http.Header{"Accept": {"text/csv"}}

// query streams a workload at release id and reads the line-format
// answers through to the trailer, which must report every query
// answered. node is the replica a router says answered.
func (c *client) query(base, id string, qs querySet) (answers []float64, node string, lat, ttfb time.Duration, err error) {
	lat, ttfb, err = c.call(http.MethodPost, releaseURL(base, id)+"/query", qs.body, acceptLines, http.StatusOK, func(h http.Header, r io.Reader) error {
		node = h.Get(cluster.NodeHeader)
		var t workload.Trailer
		var err error
		answers, t, err = workload.ReadAnswerLines(r)
		switch {
		case err != nil:
			return err
		case t.Status != workload.StatusOK || t.Answers != len(qs.queries) || len(answers) != len(qs.queries):
			return fmt.Errorf("trailer %+v after %d answers, want status ok and %d answers", t, len(answers), len(qs.queries))
		}
		return nil
	})
	return answers, node, lat, ttfb, err
}

// count sends one /count request.
func (c *client) count(u string) (float64, time.Duration, time.Duration, error) {
	var v struct {
		Count *float64 `json:"count"`
	}
	lat, ttfb, err := c.call(http.MethodGet, u, nil, nil, http.StatusOK, func(_ http.Header, r io.Reader) error {
		if err := json.NewDecoder(r).Decode(&v); err != nil {
			return err
		}
		if v.Count == nil {
			return errors.New("no count in the reply")
		}
		return nil
	})
	if err != nil {
		return 0, lat, ttfb, err
	}
	return *v.Count, lat, ttfb, nil
}

// remove DELETEs a release; a node answers 204, the router 200.
func (c *client) remove(base, id string, want int) error {
	_, _, err := c.call(http.MethodDelete, releaseURL(base, id), nil, nil, want, nil)
	return err
}

// export fetches a release's codec bytes.
func (c *client) export(base, id string) ([]byte, error) {
	var buf bytes.Buffer
	_, _, err := c.call(http.MethodGet, releaseURL(base, id)+"/export", nil, nil, http.StatusOK, func(_ http.Header, r io.Reader) error {
		_, err := buf.ReadFrom(r)
		return err
	})
	return buf.Bytes(), err
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, err := c.call(http.MethodGet, base+"/readyz", nil, nil, http.StatusOK, nil)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spillBytes sums the sizes of the release files in the nodes' spill
// directories.
func spillBytes(nodes []*node) (int64, error) {
	var total int64
	for _, n := range nodes {
		ents, err := os.ReadDir(filepath.Join(n.dir, "spill"))
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) != ".prvl" {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}
