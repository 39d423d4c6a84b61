package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one workload as BENCHMARK.json declares it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"publish", "1 client POSTs the 50k-row census CSV and deletes the release: ingest, transform, noise, prefix-sum, encode and spill do the work"},
	{"query", "1 client streams 40k-query §VII-A workloads, cycling 5x the answer cache, at one resident release: parse, execute, answer write; the cache mostly misses"},
	{"dashboard", "2 clients send Zipf counts over 32 restarted tenants, 4x the resident cap, with republishes: reloads, evictions, cache hits, recovery"},
	{"cluster", "1 client publishes, deletes and queries through a router over 3 nodes with 2 replicas: proxying, buffered retry bodies, replication"},
}

// endToEndDefs are the metrics a client of the service sees. Every
// workload reports all of them; what "the request" is differs per
// workload (bench/README.md has the table). Timings get the largest
// bound BENCHMARK.json permits: on the 2-vCPU VM the benchmark was built
// on, CPU speed alone wanders by ±10–20% over seconds to minutes, and
// 10-run spreads of 0.1–0.3 were measured. Tail percentiles and time to
// first byte repeated worse than that and are not end-to-end metrics.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"maxrss_mb", "MiB", "lower", 0.2},
}

// perLayerDefs come from the traced replay (and, for the counts, from
// the untraced window's store and runtime counters). A workload whose
// operations never reach a layer reports 0 for it.
var perLayerDefs = []metricDef{
	{Name: "ledger.charge.us", Unit: "us", Better: "lower"},
	{Name: "ingest.ms", Unit: "ms", Better: "lower"},
	{Name: "mechanism.ms", Unit: "ms", Better: "lower"},
	{Name: "transform.ms", Unit: "ms", Better: "lower"},
	{Name: "noise.ms", Unit: "ms", Better: "lower"},
	{Name: "inverse.ms", Unit: "ms", Better: "lower"},
	{Name: "prefixsum.ms", Unit: "ms", Better: "lower"},
	{Name: "encode.ms", Unit: "ms", Better: "lower"},
	{Name: "encode.bytes", Unit: "B", Better: "lower"},
	{Name: "store.put.ms", Unit: "ms", Better: "lower"},
	{Name: "store.remove.ms", Unit: "ms", Better: "lower"},
	{Name: "http.publish.ms", Unit: "ms", Better: "lower"},
	{Name: "query.parse.ms", Unit: "ms", Better: "lower"},
	{Name: "query.execute.ms", Unit: "ms", Better: "lower"},
	{Name: "query.execute_cached.ms", Unit: "ms", Better: "lower"},
	{Name: "answers.write.ms", Unit: "ms", Better: "lower"},
	{Name: "client.read.ms", Unit: "ms", Better: "lower"},
	{Name: "http.query.ms", Unit: "ms", Better: "lower"},
	{Name: "answers.ttfa.ms", Unit: "ms", Better: "lower"},
	{Name: "count.parse.us", Unit: "us", Better: "lower"},
	{Name: "count.execute.us", Unit: "us", Better: "lower"},
	{Name: "store.get_resident.us", Unit: "us", Better: "lower"},
	{Name: "store.get_reload.us", Unit: "us", Better: "lower"},
	{Name: "store.recovery.ms", Unit: "ms", Better: "lower"},
	{Name: "store.reloads_per_1k", Unit: "count", Better: "lower"},
	{Name: "store.evictions_per_1k", Unit: "count", Better: "lower"},
	{Name: "store.resident_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.disk_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_1k", Unit: "count", Better: "lower"},
	{Name: "http.count.us", Unit: "us", Better: "lower"},
	{Name: "router.publish_overhead.ms", Unit: "ms", Better: "lower"},
	{Name: "router.query_overhead.ms", Unit: "ms", Better: "lower"},
	{Name: "replicate.ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.mb_per_op", Unit: "MB/op", Better: "lower"},
	{Name: "gc.cycles_per_op", Unit: "1/op", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values, in the defs' units.
// A value that is not finite (a percentile over failed requests) is
// reported as the largest float64, since JSON cannot carry +Inf.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile returns the nearest-rank p-quantile of sorted (NaN when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
