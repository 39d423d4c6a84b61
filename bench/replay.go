package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/ledger"
	"repro/internal/matrix"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/workload"
)

// span is one timed call in the traced pass. Spans of one replayed
// operation share a request id; a root span has parent -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory. While off, start returns -1 and finish
// ignores it, so the same replay code runs untraced.
type tracer struct {
	on    bool
	epoch time.Time
	req   int
	spans []span
}

func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: t.req, Name: name, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if id >= 0 {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
	}
}

// perRequest returns, per span name, each request's summed durations in
// seconds: a layer called once per sub-matrix reports its whole
// per-publish time.
func (t *tracer) perRequest() map[string][]float64 {
	sums := map[string]map[int]float64{}
	for _, s := range t.spans {
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][s.Request] += float64(s.EndNS-s.StartNS) / 1e9
	}
	out := map[string][]float64{}
	for name, byReq := range sums {
		for _, v := range byReq {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// durations returns every span of name's duration in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workloadName string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"workload": workloadName, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// replayer replays operations by calling the layers the HTTP handlers
// call, in their order, on the same store and ledger instances the
// server used, with the worker budget the server resolves for a request
// (no parallelism parameter: GOMAXPROCS).
type replayer struct {
	b      *bench
	t      *tracer
	par    int
	mech   privelet.Mechanism
	schema *dataset.Schema
	buf    bytes.Buffer

	encodeBytes int64
	// Wall time of the traced and the untraced halves of the replayed
	// operations; their ratio is the tracing overhead.
	on, off time.Duration
}

func newReplayer(b *bench) (*replayer, error) {
	mech, err := privelet.MechanismByName(mechName)
	if err != nil {
		return nil, err
	}
	return &replayer{b: b, t: &tracer{on: true, epoch: time.Now()}, par: runtime.GOMAXPROCS(0), mech: mech, schema: b.in.schema}, nil
}

// alternate replays n operations, tracing every other operation of each
// kind (kind may be nil: one kind), so both halves see the same mix and
// their wall-time ratio is the cost of tracing.
func (rp *replayer) alternate(n int, kind func(k int) string, op func(k int) error) error {
	defer func() { rp.t.on = true }()
	seen := map[string]int{}
	for k := range n {
		var name string
		if kind != nil {
			name = kind(k)
		}
		rp.t.on = seen[name]%2 == 0
		seen[name]++
		rp.t.req++
		start := time.Now()
		err := op(k)
		if d := time.Since(start); rp.t.on {
			rp.on += d
		} else {
			rp.off += d
		}
		if err != nil {
			return fmt.Errorf("operation %d: %w", k, err)
		}
	}
	return nil
}

func (rp *replayer) params(seed uint64) privelet.Params {
	return privelet.Params{Epsilon: epsilon, SA: sa, Seed: seed, Parallelism: rp.par}
}

// ingest is the handler's ingest: the CSV streamed into a Publisher.
func (rp *replayer) ingest(csv []byte) (*privelet.Publisher, error) {
	pub, err := privelet.NewPublisher(rp.schema)
	if err != nil {
		return nil, err
	}
	return pub, cli.ReadRows(rp.schema, bytes.NewReader(csv), pub.Add)
}

// probe replays the probe release and workload and checks them against
// what the HTTP pass received, bit for bit.
func (rp *replayer) probe() error {
	pub, err := rp.ingest(rp.b.in.tenantCSV[0])
	if err != nil {
		return err
	}
	res, err := rp.mech.Publish(context.Background(), pub.Frequency(), rp.params(rp.b.in.probeSeed()))
	if err != nil {
		return err
	}
	if d := floatDigest(res.Noisy.Data()); d != rp.b.probeExport {
		return fmt.Errorf("replayed probe release digest %s, HTTP export %s", d, rp.b.probeExport)
	}
	answers, err := query.Batch{Eval: query.NewEvaluatorWorkers(res.Noisy, rp.par), Workers: rp.par}.Execute(context.Background(), rp.b.in.pool[0].queries)
	if err != nil {
		return err
	}
	return sameFloats("replayed probe answers", answers, rp.b.probeAnswers)
}

// publish replays a publish handler — POST /publish when tenant is
// empty, POST /tenants/{tenant}/publish otherwise — and returns the
// stored release's ID. After the handler's calls it times, as a probe of
// its own, the layers store.Put runs inside (prefix-sum build, encode)
// and a serial replay of the Figure-5 loop, whose matrix must equal the
// mechanism's bit for bit.
func (rp *replayer) publish(st *store.Store, led *ledger.Ledger, tenant, id string, csv []byte, seed uint64) (string, error) {
	t := rp.t
	root := t.start("op.publish", -1)
	if tenant != "" {
		s := t.start("ledger.charge", root)
		_, err := led.Charge(tenant, epsilon)
		t.finish(s)
		if err != nil {
			return "", err
		}
	}
	s := t.start("ingest", root)
	pub, err := rp.ingest(csv)
	t.finish(s)
	if err != nil {
		return "", err
	}
	s = t.start("mechanism", root)
	res, err := rp.mech.Publish(context.Background(), pub.Frequency(), rp.params(seed))
	t.finish(s)
	if err != nil {
		return "", err
	}
	payload := &codec.Payload{
		Meta:   codec.Meta{Mechanism: rp.mech.Name(), Epsilon: res.Epsilon, Rho: res.Rho, Lambda: res.Lambda, Bound: res.VarianceBound},
		Schema: rp.schema, Noisy: res.Noisy,
	}
	if tenant != "" {
		s = t.start("ledger.next_epoch", root)
		epoch, err := led.NextEpoch(tenant)
		t.finish(s)
		if err != nil {
			return "", err
		}
		id = fmt.Sprintf("%s/%d", tenant, epoch)
	}
	s = t.start("store.put", root)
	err = st.Put(id, payload, rp.par)
	t.finish(s)
	t.finish(root)
	if err != nil {
		return "", err
	}

	probe := t.start("probe.publish", -1)
	defer t.finish(probe)
	if err := rp.figure5(probe, pub.Frequency().M, seed, res.Noisy); err != nil {
		return "", err
	}
	s = t.start("prefixsum", probe)
	query.NewEvaluatorWorkers(res.Noisy, rp.par)
	t.finish(s)
	var cw countWriter
	s = t.start("encode", probe)
	err = store.EncodeRelease(&cw, payload)
	t.finish(s)
	rp.encodeBytes = cw.n
	return id, err
}

// figure5 replays the Privelet+ loop of Figure 5 serially — per SA
// sub-matrix: extract, HN forward transform, Laplace noise from the
// sub-matrix's substream, inverse — with a span per stage per
// sub-matrix, and checks the assembled matrix against want.
func (rp *replayer) figure5(parent int, m *matrix.Matrix, seed uint64, want *matrix.Matrix) error {
	t := rp.t
	isSA := map[int]bool{}
	for _, name := range sa {
		i, err := rp.schema.Index(name)
		if err != nil {
			return err
		}
		isSA[i] = true
	}
	var saIdx []int
	var restSpecs []transform.Spec
	specs := rp.schema.Specs()
	for i := range rp.schema.NumAttrs() {
		if isSA[i] {
			saIdx = append(saIdx, i)
		} else {
			restSpecs = append(restSpecs, specs[i])
		}
	}
	hn, err := transform.New(restSpecs...)
	if err != nil {
		return err
	}
	lambda := 2 * hn.GeneralizedSensitivity() / epsilon
	weights := make([][]float64, hn.NumDims())
	for i := range weights {
		weights[i] = hn.WeightVector(i)
	}
	sizes := make([]int, len(saIdx))
	subs := 1
	for i, si := range saIdx {
		sizes[i] = rp.schema.Attr(si).Size
		subs *= sizes[i]
	}
	noisy, err := matrix.New(m.Dims()...)
	if err != nil {
		return err
	}
	ex := transform.Exec{Workers: 1, Pipe: matrix.NewPipeline(), Cache: hn.NewKernelCache(1)}
	var sub *matrix.Matrix
	coords := make([]int, len(saIdx))
	for idx := range subs {
		rem := idx
		for k := len(saIdx) - 1; k >= 0; k-- {
			coords[k] = rem % sizes[k]
			rem /= sizes[k]
		}
		if sub, err = m.SubInto(saIdx, coords, sub); err != nil {
			return err
		}
		s := t.start("transform", parent)
		c, err := hn.ForwardExec(sub, ex)
		t.finish(s)
		if err != nil {
			return err
		}
		s = t.start("noise", parent)
		err = privacy.InjectLaplaceCtx(context.Background(), c, weights, lambda, rng.SubstreamSeed(seed, uint64(idx)), 1)
		t.finish(s)
		if err != nil {
			return err
		}
		s = t.start("inverse", parent)
		rec, err := hn.InverseExec(c, ex)
		t.finish(s)
		if err != nil {
			return err
		}
		if err := noisy.SetSub(saIdx, coords, rec); err != nil {
			return err
		}
	}
	return sameFloats("serial Figure-5 replay vs the mechanism", noisy.Data(), want.Data())
}

// countWriter counts and discards.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// remove replays DELETE /releases/{id}.
func (rp *replayer) remove(st *store.Store, id string) error {
	root := rp.t.start("op.delete", -1)
	s := rp.t.start("store.remove", root)
	err := st.Remove(id)
	rp.t.finish(s)
	rp.t.finish(root)
	return err
}

// query replays POST /releases/{id}/query with Accept: text/csv, and
// the client reading the answers back. The handler pipelines parsing
// into execution; the replay runs the stages one after another so each
// has its own span. As a probe it also executes without the answer
// cache, which must not change an answer.
func (rp *replayer) query(st *store.Store, id string, qs querySet, want []float64) error {
	t := rp.t
	ctx := context.Background()
	root := t.start("op.query", -1)
	s := t.start("store.get", root)
	rel, err := st.Get(id)
	t.finish(s)
	if err != nil {
		return err
	}
	s = t.start("query.parse", root)
	src := workload.Queries(rel.Payload.Schema, workload.NewLineSpecs(bytes.NewReader(qs.body)))
	queries := make([]query.Query, 0, len(qs.queries))
	for {
		q, ok, err := src()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		queries = append(queries, q)
	}
	t.finish(s)
	s = t.start("query.execute_cached", root)
	cached, err := query.Batch{Eval: rel.Eval, Workers: rp.par, Cache: rel.Cache, Schema: rel.Payload.Schema}.Execute(ctx, queries)
	t.finish(s)
	if err != nil {
		return err
	}
	s = t.start("answers.write", root)
	rp.buf.Reset()
	aw := workload.NewAnswerLines(&rp.buf)
	for lo := 0; lo < len(cached) && err == nil; lo += query.DefaultStreamChunk {
		err = aw.WriteChunk(cached[lo:min(lo+query.DefaultStreamChunk, len(cached))])
	}
	if err == nil {
		err = aw.Close(workload.Trailer{Answers: len(cached), Status: workload.StatusOK})
	}
	t.finish(s)
	if err != nil {
		return err
	}
	s = t.start("client.read", root)
	got, tr, err := workload.ReadAnswerLines(&rp.buf)
	t.finish(s)
	t.finish(root)
	if err != nil {
		return err
	}
	if tr.Status != workload.StatusOK || tr.Answers != len(qs.queries) {
		return fmt.Errorf("replayed trailer %+v, want status ok and %d answers", tr, len(qs.queries))
	}

	probe := t.start("probe.query", -1)
	s = t.start("query.execute", probe)
	plain, err := query.Batch{Eval: rel.Eval, Workers: rp.par}.Execute(ctx, queries)
	t.finish(s)
	t.finish(probe)
	if err != nil {
		return err
	}
	if err := sameFloats("replayed answers", got, want); err != nil {
		return err
	}
	return sameFloats("answers without the cache", plain, cached)
}

// count replays GET /releases/{id}/count?q=spec. The store lookup's span
// says whether the release was resident or had to be reloaded.
func (rp *replayer) count(st *store.Store, id, spec string) (float64, error) {
	t := rp.t
	stub, err := st.Describe(id)
	if err != nil {
		return 0, err
	}
	get := "store.get_reload"
	if stub.Resident {
		get = "store.get_resident"
	}
	root := t.start("op.count", -1)
	defer t.finish(root)
	s := t.start(get, root)
	rel, err := st.Get(id)
	t.finish(s)
	if err != nil {
		return 0, err
	}
	s = t.start("count.parse", root)
	q, err := query.Parse(rel.Payload.Schema, spec)
	t.finish(s)
	if err != nil {
		return 0, err
	}
	s = t.start("count.execute", root)
	answers, err := query.Batch{Eval: rel.Eval, Workers: 1, Cache: rel.Cache, Schema: rel.Payload.Schema}.Execute(context.Background(), []query.Query{q})
	t.finish(s)
	if err != nil {
		return 0, err
	}
	return answers[0], nil
}

// recover replays a daemon restart: store recovery over the spill
// directory, then the ledger's over its own.
func (rp *replayer) recover(spill, ledgerDir string, maxResident int) (*store.Store, *ledger.Ledger, error) {
	t := rp.t
	t.req++
	root := t.start("op.recover", -1)
	defer t.finish(root)
	s := t.start("store.recovery", root)
	st, err := store.New(store.Config{Dir: spill, MaxResident: maxResident, AnswerCache: store.DefaultAnswerCache})
	t.finish(s)
	if err != nil {
		return nil, nil, err
	}
	s = t.start("ledger.recovery", root)
	led, err := ledger.New(ledger.Config{Dir: ledgerDir})
	t.finish(s)
	return st, led, err
}

// spanLayers maps per-layer metrics to the spans they are the median
// per-operation time of.
var spanLayers = []struct {
	metric, span string
	scale        float64 // seconds to the metric's unit
}{
	{"ledger.charge.us", "ledger.charge", 1e6},
	{"ingest.ms", "ingest", 1e3},
	{"mechanism.ms", "mechanism", 1e3},
	{"transform.ms", "transform", 1e3},
	{"noise.ms", "noise", 1e3},
	{"inverse.ms", "inverse", 1e3},
	{"prefixsum.ms", "prefixsum", 1e3},
	{"encode.ms", "encode", 1e3},
	{"store.put.ms", "store.put", 1e3},
	{"store.remove.ms", "store.remove", 1e3},
	{"query.parse.ms", "query.parse", 1e3},
	{"query.execute.ms", "query.execute", 1e3},
	{"query.execute_cached.ms", "query.execute_cached", 1e3},
	{"answers.write.ms", "answers.write", 1e3},
	{"client.read.ms", "client.read", 1e3},
	{"count.parse.us", "count.parse", 1e6},
	{"count.execute.us", "count.execute", 1e6},
	{"store.get_resident.us", "store.get_resident", 1e6},
	{"store.get_reload.us", "store.get_reload", 1e6},
	{"store.recovery.ms", "store.recovery", 1e3},
	{"replicate.ms", "replicate", 1e3},
}

// perLayer computes the per-layer metrics: span medians from the traced
// pass, the HTTP and router layers as differences of medians, and store,
// cache and runtime counters as deltas over the untraced window, per
// request of the workload's primary kind.
func perLayer(w scenario, rec *recorder, before, after counters, rp *replayer) map[string]float64 {
	per := rp.t.perRequest()
	p50 := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	v := map[string]float64{"encode.bytes": float64(rp.encodeBytes)}
	for _, l := range spanLayers {
		v[l.metric] = p50(per[l.span]) * l.scale
	}
	// What HTTP adds to a request: the untraced window's median latency
	// minus the replayed operation's median.
	httpLayer := func(kind, root string, scale float64) float64 {
		lat, _ := rec.latencies(kind)
		if len(lat) == 0 || len(per[root]) == 0 {
			return 0
		}
		return (median(lat)/1e3 - p50(per[root])) * scale
	}
	v["http.publish.ms"] = httpLayer("publish", "op.publish", 1e3)
	v["http.query.ms"] = httpLayer("query", "op.query", 1e3)
	v["http.count.us"] = httpLayer("count", "op.count", 1e6)
	// Time to the first answer line of a streamed workload.
	for _, kind := range []string{"query", "routed_query"} {
		if _, ttfa := rec.latencies(kind); len(ttfa) > 0 {
			v["answers.ttfa.ms"] = median(ttfa)
		}
	}
	overhead := func(routed, direct string) float64 {
		r, d := rp.t.durations(routed), rp.t.durations(direct)
		if len(r) == 0 || len(d) == 0 {
			return 0
		}
		return (median(r) - median(d)) * 1e3
	}
	v["router.publish_overhead.ms"] = overhead("http.routed_publish", "http.direct_publish")
	v["router.query_overhead.ms"] = overhead("http.routed_query", "http.direct_query")

	reqs := float64(len(rec.samples[w.primary()]))
	st0, st1 := before.st, after.st
	if lookups := float64(st1.AnswerCacheHits - st0.AnswerCacheHits + st1.AnswerCacheMisses - st0.AnswerCacheMisses); lookups > 0 {
		v["cache.hit_ratio"] = float64(st1.AnswerCacheHits-st0.AnswerCacheHits) / lookups
		v["cache.evictions_per_1k"] = float64(st1.AnswerCacheEvictions-st0.AnswerCacheEvictions) / lookups * 1e3
		// Only reads look releases up in the store.
		reloads := float64(st1.Reloads - st0.Reloads)
		v["store.reloads_per_1k"] = reloads / reqs * 1e3
		v["store.evictions_per_1k"] = float64(st1.Evictions-st0.Evictions) / reqs * 1e3
		v["store.resident_hit_ratio"] = 1 - reloads/reqs
	}
	if after.st.Releases > 0 {
		v["store.disk_bytes_per_cell"] = float64(after.spill) / float64(after.st.Releases*cells)
	}
	if reqs > 0 {
		v["alloc.mb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6 / reqs
		v["gc.cycles_per_op"] = float64(after.mem.NumGC-before.mem.NumGC) / reqs
	}
	if rp.off > 0 {
		v["trace.overhead_ratio"] = float64(rp.on) / float64(rp.off)
	}
	return v
}
