package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// toggleNode is a probe target whose readiness can be flipped.
type toggleNode struct {
	ready atomic.Bool
	ts    *httptest.Server
}

func newToggleNode(t *testing.T) *toggleNode {
	t.Helper()
	n := &toggleNode{}
	n.ready.Store(true)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/readyz" {
			http.NotFound(w, req)
			return
		}
		if n.ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(n.ts.Close)
	return n
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterHealthEjectionAndReadmission: a node is ejected only
// after the configured run of consecutive probe failures, and one
// successful probe re-admits it.
func TestClusterHealthEjectionAndReadmission(t *testing.T) {
	n := newToggleNode(t)
	h := NewHealth([]Node{{Name: "a", URL: n.ts.URL}}, HealthConfig{Interval: 3 * time.Millisecond})
	h.Start()
	defer h.Stop()
	if !h.Healthy("a") {
		t.Fatal("ready node probed unhealthy")
	}

	n.ready.Store(false)
	waitFor(t, "ejection after consecutive failures", func() bool { return !h.Healthy("a") })
	snap := h.Snapshot()
	if len(snap) != 1 || snap[0].Fails < 3 || snap[0].LastErr == "" {
		t.Fatalf("snapshot after ejection = %+v", snap)
	}

	n.ready.Store(true)
	waitFor(t, "re-admission after recovery", func() bool { return h.Healthy("a") })
	snap = h.Snapshot()
	if snap[0].Fails != 0 || snap[0].LastErr != "" {
		t.Fatalf("snapshot after re-admission = %+v", snap)
	}
}

// TestClusterHealthThresholdTolerance: fewer consecutive failures than
// the threshold never eject (one dropped probe must not flap a node
// out of the ring).
func TestClusterHealthThresholdTolerance(t *testing.T) {
	n := newToggleNode(t)
	h := NewHealth([]Node{{Name: "a", URL: n.ts.URL}}, HealthConfig{})
	n.ready.Store(false)
	h.probeAll()
	h.probeAll()
	if !h.Healthy("a") {
		t.Fatal("ejected after 2 failures with threshold 3")
	}
	n.ready.Store(true)
	h.probeAll()
	n.ready.Store(false)
	h.probeAll()
	h.probeAll()
	if !h.Healthy("a") {
		t.Fatal("the success in between must reset the failure run")
	}
	h.probeAll()
	if h.Healthy("a") {
		t.Fatal("3 consecutive failures must eject")
	}
}

// TestClusterHealthReportFailure: the proxy's passive path ejects
// immediately — waiting three probe ticks while live traffic times out
// against a dead peer would be strictly worse — and the probe loop
// re-admits.
func TestClusterHealthReportFailure(t *testing.T) {
	n := newToggleNode(t)
	h := NewHealth([]Node{{Name: "a", URL: n.ts.URL}}, HealthConfig{Interval: 3 * time.Millisecond})
	if !h.Healthy("a") {
		t.Fatal("nodes start healthy")
	}
	h.ReportFailure("a", nil)
	if h.Healthy("a") {
		t.Fatal("ReportFailure must eject immediately")
	}
	h.Start()
	defer h.Stop()
	waitFor(t, "probe re-admission", func() bool { return h.Healthy("a") })
}

// TestClusterHealthUnknownNode: names outside the ring are never
// healthy and never panic.
func TestClusterHealthUnknownNode(t *testing.T) {
	h := NewHealth(nil, HealthConfig{})
	if h.Healthy("ghost") {
		t.Fatal("unknown node reported healthy")
	}
	h.ReportFailure("ghost", nil) // must not panic
	h.Stop()                      // without Start: must not panic
}

// gatedPeer is a peer whose rounds a test can hold: it answers with
// before until armed, then its next request signals entered and blocks
// until release closes, and that request and every later one are
// answered with after. A round that finished has therefore seen after.
type gatedPeer struct {
	ts       *httptest.Server
	armed    atomic.Bool
	released atomic.Bool
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newGatedPeer(t *testing.T, before, after http.HandlerFunc) *gatedPeer {
	t.Helper()
	p := &gatedPeer{entered: make(chan struct{}), release: make(chan struct{})}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if p.armed.CompareAndSwap(true, false) {
			close(p.entered)
			<-p.release
		}
		if p.released.Load() {
			after(w, req)
		} else {
			before(w, req)
		}
	}))
	t.Cleanup(p.ts.Close)
	t.Cleanup(p.open) // runs before Close, so a failed test never leaves a handler blocked
	return p
}

// open lets the held request go on, answered with after.
func (p *gatedPeer) open() {
	p.once.Do(func() {
		p.released.Store(true)
		close(p.release)
	})
}

// assertStopContract checks the Start/Stop contract Health and Repairer
// share through loop: Stop without Start, Start twice then Stop, and
// Stop twice all return, and a Stop during a running round returns only
// once that round has finished (finished reports whether a round has
// seen the peer's after answer).
func assertStopContract(t *testing.T, start, stop func(), peer *gatedPeer, finished func() bool) {
	t.Helper()
	stop()
	start()
	start()
	stop()
	stop()

	start()
	peer.armed.Store(true)
	select {
	case <-peer.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no round reached the peer")
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a round was still running")
	case <-time.After(50 * time.Millisecond):
	}
	peer.open()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the round finished")
	}
	if !finished() {
		t.Fatal("Stop returned before the running round recorded its result")
	}
	stop()
}

// TestClusterHealthStopContract holds a probe round on a peer's /readyz
// and stops the prober under it.
func TestClusterHealthStopContract(t *testing.T) {
	peer := newGatedPeer(t,
		func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) },
		func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) })
	h := NewHealth([]Node{{Name: "a", URL: peer.ts.URL}}, HealthConfig{Interval: 2 * time.Millisecond})
	assertStopContract(t, h.Start, h.Stop, peer, func() bool { return h.Snapshot()[0].LastErr != "" })
}
