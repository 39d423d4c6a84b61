package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// DefaultProbeInterval is how often the health loop probes each node
// when HealthConfig.Interval is not set.
const DefaultProbeInterval = time.Second

// DefaultProbeTimeout bounds one probe request — a node that cannot
// answer /readyz in two seconds is not a node the proxy should wait on
// either.
const DefaultProbeTimeout = 2 * time.Second

// DefaultFailureThreshold is the run of consecutive probe failures
// that ejects a node. Three strikes tolerates one dropped probe or GC
// pause without flapping the node out of the ring; a single successful
// probe re-admits it.
const DefaultFailureThreshold = 3

// HealthConfig configures a Health prober.
type HealthConfig struct {
	// Interval is the wait after each probe round before the next one
	// starts; ≤ 0 means DefaultProbeInterval.
	Interval time.Duration
}

// NodeHealth is one node's health snapshot.
type NodeHealth struct {
	Name string `json:"name"`
	// Healthy reports whether the proxy currently routes to the node.
	Healthy bool `json:"healthy"`
	// Fails is the current run of consecutive probe failures.
	Fails int `json:"consecutive_failures"`
	// LastErr is the most recent probe failure, empty after a success.
	LastErr string `json:"last_error,omitempty"`
}

// Health tracks per-node liveness for the router: a probe loop GETs
// each node's /readyz on an interval, a run of DefaultFailureThreshold
// consecutive failures ejects the node, and one successful probe
// re-admits it. The proxy additionally reports transport-level
// failures it hits on real traffic (ReportFailure), which eject the
// node immediately — waiting for three probe ticks while every request
// to a dead peer times out would be strictly worse — and the probe
// loop is then the re-admission path. All methods are safe for
// concurrent use.
type Health struct {
	interval time.Duration
	client   *http.Client

	mu     sync.Mutex
	states map[string]*nodeState
	loop   loop
}

type nodeState struct {
	node    Node
	healthy bool
	fails   int
	lastErr string
}

// NewHealth builds a prober over nodes. Every node starts healthy —
// the first probe round (run synchronously by Start) corrects that
// before any traffic is routed.
func NewHealth(nodes []Node, cfg HealthConfig) *Health {
	h := &Health{
		interval: cfg.Interval,
		client:   &http.Client{Timeout: DefaultProbeTimeout},
		states:   make(map[string]*nodeState, len(nodes)),
	}
	if h.interval <= 0 {
		h.interval = DefaultProbeInterval
	}
	for _, n := range nodes {
		h.states[n.Name] = &nodeState{node: n, healthy: true}
	}
	return h
}

// Start runs one synchronous probe round — so the caller begins with a
// measured view, not the optimistic default — then launches the
// background loop, which starts each round Interval after the previous
// one ends. Stop ends it.
func (h *Health) Start() {
	h.probeAll()
	h.loop.start(func() time.Duration { return h.interval }, h.probeAll)
}

// Stop ends the probe loop and waits for a running round to finish.
// Safe to call without Start, or twice.
func (h *Health) Stop() { h.loop.halt() }

// probeAll probes every node once, concurrently, and blocks until the
// round completes.
func (h *Health) probeAll() {
	h.mu.Lock()
	nodes := make([]Node, 0, len(h.states))
	for _, st := range h.states {
		nodes = append(nodes, st.node)
	}
	h.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			h.record(n.Name, h.probe(n))
		}(n)
	}
	wg.Wait()
}

// probe issues one readiness check; any non-2xx status or transport
// error is a failure (a recovering node 503s /readyz on purpose — it
// must not receive traffic yet).
func (h *Health) probe(n Node) error {
	resp, err := h.client.Get(n.URL + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("readyz status %d", resp.StatusCode)
	}
	return nil
}

// record applies one probe result: success re-admits immediately,
// failures eject after DefaultFailureThreshold in a row.
func (h *Health) record(name string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.states[name]
	if st == nil {
		return
	}
	if err == nil {
		st.healthy, st.fails, st.lastErr = true, 0, ""
		return
	}
	st.fails++
	st.lastErr = err.Error()
	if st.fails >= DefaultFailureThreshold {
		st.healthy = false
	}
}

// Healthy reports whether the node is currently routable. Unknown
// names are unhealthy.
func (h *Health) Healthy(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.states[name]
	return st != nil && st.healthy
}

// ReportFailure is the proxy's passive detection path: a transport-
// level failure on real traffic ejects the node immediately (the probe
// loop re-admits it once /readyz answers again). HTTP-level errors are
// not reported here — a node healthy enough to produce a status line
// is healthy enough to keep probing on schedule.
func (h *Health) ReportFailure(name string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.states[name]
	if st == nil {
		return
	}
	st.fails++
	st.healthy = false
	if err != nil {
		st.lastErr = err.Error()
	}
}

// Snapshot returns every node's current health, sorted by name.
func (h *Health) Snapshot() []NodeHealth {
	h.mu.Lock()
	out := make([]NodeHealth, 0, len(h.states))
	for _, st := range h.states {
		out = append(out, NodeHealth{Name: st.node.Name, Healthy: st.healthy, Fails: st.fails, LastErr: st.lastErr})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// loop runs one job on a goroutine of its own, round after round, until
// halted: the background side of Health and Repairer. The zero value is
// stopped.
type loop struct {
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// start launches the goroutine: it waits wait(), runs round, and
// repeats, each wait drawn afresh after the previous round ends. Start
// on a running loop does nothing.
func (l *loop) start(wait func() time.Duration, round func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	l.stop, l.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTimer(wait())
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				round()
				t.Reset(wait())
			}
		}
	}()
}

// halt ends the loop and returns once its goroutine has exited, after
// the round it is running, if any. Safe on a loop never started, or
// twice.
func (l *loop) halt() {
	l.mu.Lock()
	stop, done := l.stop, l.done
	l.stop, l.done = nil, nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
