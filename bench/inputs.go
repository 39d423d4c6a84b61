package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/variance"
	"repro/internal/workload"
)

// The census release every workload publishes: the Brazil schema at the
// small scale (64×2×64×64 = 524,288 cells), Privelet+ with SA = {Age,
// Gender} as the paper picks for census data, ε = 1.
const (
	schemaSpec = "Age:ordinal:64,Gender:nominal:flat:2,Occupation:nominal:3level:8x8,Income:ordinal:64"
	saParam    = "Age,Gender"
	epsilon    = 1.0
	mechName   = "privelet+"
	maxPreds   = 4
)

var sa = []string{"Age", "Gender"}

// Seed tags: every generated input derives its own seed from -seed and
// a tag, so inputs never share a random stream.
const (
	tagCensus uint64 = iota + 1
	tagTenantData
	tagTenantPublish
	tagPublishLoop
	tagQueries
	tagHotSet
	tagClient
	tagTargets
)

// derive chains rng.SubstreamSeed over tags.
func derive(seed uint64, tags ...uint64) uint64 {
	for _, t := range tags {
		seed = rng.SubstreamSeed(seed, t)
	}
	return seed
}

// probeDigests pins the sha256 of the probe answers per seed, so a
// change that alters releases (noise draws, transform arithmetic, the
// query grammar) fails the run even when the server and the in-process
// reference drift together.
//
//go:embed digests.json
var probeDigestsJSON []byte

// querySet is one §VII-A workload: the line wire format the client
// sends, and the same queries parsed here for the reference.
type querySet struct {
	body    []byte
	queries []query.Query
}

// inputs holds everything generated from the seed, off the clock.
type inputs struct {
	cfg    config
	schema *dataset.Schema
	// tenantCSV[k] is tenant k's table as a headerless CSV; tenant 0's is
	// the census table the publish and query workloads use too.
	tenantCSV map[int][]byte
	pool      []querySet
	// refAnswers[k] is the reference answers of pool[k] on the probe
	// release (tenant 0, epoch 1); pool[0] is the probe workload.
	refAnswers    [][]float64
	refDigest     string
	noiseRatio    float64
	pinnedDigests map[string]string
}

func newInputs(cfg config) (*inputs, error) {
	schema, err := cli.ParseSchema(schemaSpec)
	if err != nil {
		return nil, err
	}
	in := &inputs{cfg: cfg, schema: schema, tenantCSV: map[int][]byte{}}
	if err := json.Unmarshal(probeDigestsJSON, &in.pinnedDigests); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	gen, err := workload.NewGenerator(schema, maxPreds)
	if err != nil {
		return nil, err
	}
	for k := range cfg.pool {
		qs, err := gen.Queries(cfg.queries, rng.New(derive(cfg.seed, tagQueries, uint64(k))))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := workload.WriteQueries(&buf, schema, qs); err != nil {
			return nil, err
		}
		in.pool = append(in.pool, querySet{body: buf.Bytes(), queries: qs})
	}
	return in, in.buildReference()
}

// tenantName is tenant k's ledger name and release-ID prefix.
func tenantName(k int) string { return fmt.Sprintf("t%02d", k) }

// tenantSeed is the publish seed of tenant k's epoch e. Tenant 0's first
// epoch is the probe release.
func (in *inputs) tenantSeed(k int, epoch uint64) uint64 {
	return derive(in.cfg.seed, tagTenantPublish, uint64(k), epoch)
}

func (in *inputs) probeSeed() uint64 { return in.tenantSeed(0, 1) }

// table regenerates tenant k's census table.
func (in *inputs) table(k int) (*dataset.Table, error) {
	seed := derive(in.cfg.seed, tagCensus)
	if k > 0 {
		seed = derive(in.cfg.seed, tagTenantData, uint64(k))
	}
	return dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), in.cfg.rows, seed)
}

// csv returns tenant k's table as the CSV bytes the server receives,
// generating it on first use. Workloads generate every tenant's CSV
// before their clients start, so concurrent clients only read the map.
func (in *inputs) csv(k int) ([]byte, error) {
	if b, ok := in.tenantCSV[k]; ok {
		return b, nil
	}
	t, err := in.table(k)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cli.WriteTableCSV(&buf, t); err != nil {
		return nil, err
	}
	in.tenantCSV[k] = buf.Bytes()
	return buf.Bytes(), nil
}

// reference publishes tenant k's table in-process through the library's
// own entry point, privelet.PublishWith — no server, no store, no CSV
// parsing — with the seed tenant k's epoch e is published under.
func (in *inputs) reference(k int, epoch uint64) (*privelet.Release, *privelet.Frequency, error) {
	t, err := in.table(k)
	if err != nil {
		return nil, nil, err
	}
	freq, err := privelet.TableFrequency(t)
	if err != nil {
		return nil, nil, err
	}
	rel, err := privelet.PublishWith(context.Background(), mechName, freq, privelet.Params{Epsilon: epsilon, SA: sa, Seed: in.tenantSeed(k, epoch)})
	return rel, freq, err
}

// buildReference computes the probe release's reference answers for
// every pooled workload, its matrix digest, and the noise sanity ratio:
// the probe's mean squared error against the exact counts over
// internal/variance's mean exact variance, which is 1 in expectation.
func (in *inputs) buildReference() error {
	ctx := context.Background()
	rel, freq, err := in.reference(0, 1)
	if err != nil {
		return err
	}
	for _, qs := range in.pool {
		ans, err := rel.CountBatch(ctx, qs.queries, 0)
		if err != nil {
			return err
		}
		in.refAnswers = append(in.refAnswers, ans)
	}
	in.refDigest = floatDigest(rel.Matrix().Data())
	probe := in.pool[0].queries
	exact, err := query.Batch{Eval: query.NewEvaluator(freq.M)}.Execute(ctx, probe)
	if err != nil {
		return err
	}
	an, err := variance.NewAnalyzer(in.schema, epsilon, sa)
	if err != nil {
		return err
	}
	ws, err := an.Workload(probe)
	if err != nil {
		return err
	}
	var sse float64
	for i, v := range in.refAnswers[0] {
		d := v - exact[i]
		sse += d * d
	}
	in.noiseRatio = sse / float64(len(probe)) / ws.Mean
	return nil
}

// checkProbe judges the probe pass: the HTTP answers must be the
// reference's float64 for float64, the exported release must be the
// reference matrix bit for bit, the noise must have the calibrated
// scale, and at a pinned seed the answers must hash to the pinned
// digest.
func (in *inputs) checkProbe(answers []float64, exportDigest string) error {
	if err := sameFloats("probe answers", answers, in.refAnswers[0]); err != nil {
		return err
	}
	if exportDigest != in.refDigest {
		return fmt.Errorf("exported probe release digest %s, reference %s", exportDigest, in.refDigest)
	}
	if r := in.noiseRatio; !(r >= 0.5 && r <= 2) {
		return fmt.Errorf("probe noise: mean squared error / mean exact variance = %.3f, want within [0.5, 2]", r)
	}
	got := floatDigest(answers)
	if want, ok := in.pinnedDigests[strconv.FormatUint(in.cfg.seed, 10)]; ok && in.cfg.queries == defaultQueries && in.cfg.rows == defaultRows && got != want {
		return fmt.Errorf("probe answers sha256 %s, pinned %s for seed %d", got, want, in.cfg.seed)
	}
	return nil
}

// floatDigest is the sha256 of the values' IEEE-754 bits, little-endian.
func floatDigest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameFloats reports the first position where got and want differ in
// bits (or in length).
func sameFloats(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}
