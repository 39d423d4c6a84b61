// Command bench is the repository's end-to-end benchmark. It starts the
// real serving stack in this process on 127.0.0.1 listeners —
// internal/server over internal/store and internal/ledger, or three such
// nodes behind an internal/cluster router — and drives it with real HTTP
// from a closed loop of at most two client connections. Inputs (the
// census CSV of §VII and the §VII-A query workloads) are generated from
// -seed off the clock; the program only ever receives their bytes. Every
// response is checked, and the probe requests are compared float64 for
// float64 with an in-process reference release.
//
// One run measures one workload and prints, as its last line, a JSON
// object with the end-to-end metrics BENCHMARK.json lists. With -trace 1
// a second, separate pass replays the same operations by calling each
// layer's public functions directly, in the order the HTTP handlers call
// them, records spans around each call, and the run prints the per-layer
// metrics instead. -workload all runs every workload in its own process;
// -repeat N runs each N times over consecutive seeds and prints every
// metric's median and quartiles. bench/README.md has the details.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// Populations of the full-size benchmark; the smoke test shrinks them.
const (
	defaultRows    = 50000
	defaultQueries = 40000
	// defaultSeconds is the timed window BENCHMARK.json's run_seconds
	// passes. 20 s windows repeated no better than 10 s ones on the
	// 2-vCPU VM the benchmark was built on, whose speed drifts over
	// minutes, and shorter runs keep a set of runs inside one drift.
	defaultSeconds = 10
)

// config sizes one run.
type config struct {
	seed   uint64
	window time.Duration
	warmup time.Duration
	trace  bool
	out    string // directory the run's server state lives under

	rows, queries, pool     int // census rows; queries per workload; distinct workloads cycled
	tenants, maxResident    int // dashboard tenants and resident cap
	hotSpecs, republishEach int // dashboard hot-set size; a republish every this many requests
	probeCounts             int // dashboard counts checked against the reference
	clusterTenants          int
	// A run sets up at least minSetups times, then again until setupTime
	// has passed or maxSetups is reached; setup_s is the median.
	minSetups, maxSetups int
	setupTime            time.Duration

	// Operations the traced pass replays, half of them traced.
	replayPublishes, replayQueries, replayCounts, replayCycles int
}

func defaultConfig(seed uint64, seconds int, trace bool) config {
	return config{
		seed: seed, window: time.Duration(seconds) * time.Second, warmup: 2 * time.Second, trace: trace,
		out:  ".bench_build",
		rows: defaultRows, queries: defaultQueries,
		// Eight workloads hold 320k distinct specs, five times the answer
		// cache's 64Ki entries per release, so a cycled spec has always
		// been evicted before it comes round again.
		pool:    8,
		tenants: 32, maxResident: 8, hotSpecs: 1000, republishEach: 4096, probeCounts: 1000,
		clusterTenants: 8, minSetups: 3, maxSetups: 15, setupTime: time.Second,
		replayPublishes: 40, replayQueries: 40, replayCounts: 20000, replayCycles: 12,
	}
}

// bench is one run's shared state.
type bench struct {
	cfg config
	in  *inputs
	cl  *client
	dir string

	mu       sync.Mutex
	failures int

	// The probe's HTTP outputs, which the traced pass must reproduce.
	probeAnswers []float64
	probeExport  string
}

// fail records a failed output check; the run then reports correct:
// false and exits non-zero.
func (b *bench) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures <= 5 {
		fmt.Fprintln(os.Stderr, "bench: check failed:", err)
	}
}

// probe sends the probe requests at release id through base, off the
// clock: the release's export and the probe workload pool[0].
func (b *bench) probe(base, id string) {
	raw, err := b.cl.export(base, id)
	if err != nil {
		b.fail(err)
		return
	}
	p, err := store.DecodeRelease(bytes.NewReader(raw))
	if err != nil {
		b.fail(fmt.Errorf("decoding the probe export: %w", err))
		return
	}
	b.probeExport = floatDigest(p.Noisy.Data())
	answers, _, _, _, err := b.cl.query(base, id, b.in.pool[0])
	if err != nil {
		b.fail(err)
		return
	}
	b.probeAnswers = answers
	fmt.Fprintf(os.Stderr, "bench: seed %d probe answers sha256 %s, noise ratio %.3f\n", b.cfg.seed, floatDigest(answers), b.in.noiseRatio)
	if err := b.in.checkProbe(answers, b.probeExport); err != nil {
		b.fail(err)
	}
}

// counters is a snapshot of the counters the per-layer metrics take
// deltas of over the timed window.
type counters struct {
	st    store.Stats
	spill int64 // bytes of release files in the nodes' spill directories
	mem   runtime.MemStats
}

func snapshot(nodes []*node) (counters, error) {
	var c counters
	var err error
	if c.spill, err = spillBytes(nodes); err != nil {
		return c, err
	}
	for _, n := range nodes {
		s := n.store.Stats()
		c.st.Releases += s.Releases
		c.st.Reloads += s.Reloads
		c.st.Evictions += s.Evictions
		c.st.Rebuilds += s.Rebuilds
		c.st.AnswerCacheHits += s.AnswerCacheHits
		c.st.AnswerCacheMisses += s.AnswerCacheMisses
		c.st.AnswerCacheEvictions += s.AnswerCacheEvictions
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// maxRSS is the process's peak resident set in MiB.
func maxRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // KiB on Linux
}

// run measures one workload. The result carries the end-to-end metrics;
// with cfg.trace, layers holds the per-layer ones.
func run(cfg config, name string) (res result, layers map[string]metric, err error) {
	w := newScenario(name)
	if w == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	in, err := newInputs(cfg)
	if err != nil {
		return result{}, nil, fmt.Errorf("generating inputs: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("run-%d-%s", os.Getpid(), name)))
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, in: in, cl: newClient(), dir: dir}
	defer b.cl.hc.CloseIdleConnections()

	if err := w.prepare(b); err != nil {
		return result{}, nil, fmt.Errorf("preparing %s: %w", name, err)
	}
	// teardown tolerates a set-up that failed halfway or never ran.
	defer w.teardown(b)
	var setups []float64
	for spent := time.Duration(0); len(setups) < cfg.minSetups || (len(setups) < cfg.maxSetups && spent < cfg.setupTime); {
		if len(setups) > 0 {
			w.teardown(b)
		}
		start := time.Now()
		if err := w.setup(b); err != nil {
			return result{}, nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	w.probe(b)

	op := func(c, i int, r *recorder) { w.op(b, c, i, r) }
	next := make([]int, w.clients())
	closedLoop(w.clients(), cfg.warmup, next, op)
	before, err := snapshot(w.nodes())
	if err != nil {
		return result{}, nil, err
	}
	rec, elapsed := closedLoop(w.clients(), cfg.window, next, op)
	after, err := snapshot(w.nodes())
	if err != nil {
		return result{}, nil, err
	}
	rss, err := maxRSS()
	if err != nil {
		return result{}, nil, err
	}
	if err := w.finish(b); err != nil {
		b.fail(err)
	}
	if after.st.Rebuilds != 0 {
		b.fail(fmt.Errorf("the stores rebuilt %d prefix-sum tables; every spill file and replica carries one", after.st.Rebuilds))
	}

	res = result{Attempted: rec.attempted, Failed: rec.failed, Metrics: fill(endToEndDefs, endToEnd(setups, &rec, w.primary(), elapsed, rss))}
	if cfg.trace {
		rp, err := newReplayer(b)
		if err != nil {
			return result{}, nil, err
		}
		if err := rp.probe(); err != nil {
			b.fail(err)
		}
		if err := w.replay(b, rp); err != nil {
			b.fail(fmt.Errorf("traced pass: %w", err))
		}
		layers = fill(perLayerDefs, perLayer(w, &rec, before, after, rp))
		if err := rp.t.write(spansPath(cfg, name), name, cfg.seed); err != nil {
			return result{}, nil, err
		}
	}
	res.Correct = b.failures == 0 && rec.failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1 // the result format's floor; a run that sent nothing is incorrect anyway
		res.Correct = false
	}
	return res, layers, nil
}

// spansPath is where the traced pass writes its spans.
func spansPath(cfg config, name string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", name, cfg.seed))
}

// endToEnd computes the end-to-end metrics from the timed window.
func endToEnd(setups []float64, rec *recorder, primary string, elapsed time.Duration, rss float64) map[string]float64 {
	lat, _ := rec.latencies(primary)
	return map[string]float64{
		"setup_s":          median(setups),
		"latency_p50_ms":   percentile(lat, 0.5),
		"throughput_per_s": rec.work / elapsed.Seconds(),
		"maxrss_mb":        rss,
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: publish, query, dashboard, cluster, or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed window, in seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced replay, writes its spans to .bench_build/spans-<workload>-<seed>.json, and prints the per-layer metrics instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 1, "runs per workload over consecutive seeds; above 1 prints each metric's median and quartiles")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds ≥ 1, -trace 0 or 1, -repeat ≥ 1")
		os.Exit(2)
	}
	if *name == "all" || *repeat > 1 {
		names := []string{*name}
		if *name == "all" {
			names = nil
			for _, d := range workloadDefs {
				names = append(names, d.Name)
			}
		}
		if err := runChildren(names, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := defaultConfig(*seed, *seconds, *trace == 1)
	res, layers, err := run(cfg, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		res.Metrics = layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runChildren runs each workload repeat times, each run in its own
// process of this binary so peak RSS and GC state belong to that run
// alone, and prints each run's result line. With repeat > 1 it ends with
// a summary line: per workload and metric, the median, the quartiles,
// and the spread (q3 − q1) / median next to the metric's bound.
func runChildren(names []string, seed uint64, seconds, trace, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	var failed []string
	for r := range repeat {
		for _, name := range names {
			s := seed + uint64(r)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			last := lines[len(lines)-1]
			fmt.Printf("%s seed=%d %s\n", name, s, last)
			var res result
			if err != nil || json.Unmarshal([]byte(last), &res) != nil || !res.Correct {
				failed = append(failed, fmt.Sprintf("%s seed=%d", name, s))
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	if repeat > 1 {
		printSummary(names, values, trace == 1)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

type summaryEntry struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
}

func printSummary(names []string, values map[string]map[string][]float64, perLayer bool) {
	defs := endToEndDefs
	if perLayer {
		defs = perLayerDefs
	}
	out := map[string]map[string]summaryEntry{}
	for _, name := range names {
		out[name] = map[string]summaryEntry{}
		for _, d := range defs {
			v := values[name][d.Name]
			if len(v) == 0 {
				continue
			}
			med := median(v)
			q1, q3 := quartiles(v)
			out[name][d.Name] = summaryEntry{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Bound: d.Bound, Values: v}
			fmt.Fprintf(os.Stderr, "%-10s %-26s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %.2f\n", name, d.Name, med, q1, q3, (q3-q1)/med, d.Bound)
		}
	}
	line, _ := json.Marshal(map[string]any{"environment": environment(), "workloads": out})
	fmt.Println(string(line))
}

// environment describes the machine a summary was measured on.
func environment() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "date": time.Now().UTC().Format("2006-01-02"),
	}
}
