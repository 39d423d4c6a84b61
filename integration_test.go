package privelet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/variance"
	"repro/internal/workload"
)

// TestBasicEqualsSAAllBitForBit pins the Figure 5 special case the
// registry relies on: "basic" is Privelet+ with SA = every attribute —
// identical noise draws, identical release and accounting, given the same
// seed, at any parallelism.
func TestBasicEqualsSAAllBitForBit(t *testing.T) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := privelet.TableFrequency(tbl)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	plus, err := privelet.PublishWith(context.Background(), "privelet+", freq, privelet.Params{
		Epsilon: 0.7, SA: tbl.Schema().Names(), Seed: seed, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		basic, err := privelet.PublishWith(context.Background(), "basic", freq, privelet.Params{
			Epsilon: 0.7, Seed: seed, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := basic.Matrix().MaxAbsDiff(plus.Matrix()); d != 0 {
			t.Fatalf("parallelism %d: basic and privelet+ with SA = all diverge by %v; they must be the same mechanism", par, d)
		}
		if basic.Lambda() != plus.Lambda() || basic.Sensitivity() != plus.Sensitivity() || basic.VarianceBound() != plus.VarianceBound() {
			t.Fatalf("parallelism %d: accounting differs: basic %v vs privelet+ %v", par, basic, plus)
		}
	}
}

// TestCSVToServerToExportToLibrary walks the full deployment pipeline:
// generate data → CSV → HTTP publish → count → binary export →
// privelet.Load → identical counts offline.
func TestCSVToServerToExportToLibrary(t *testing.T) {
	// 1. Generate a table and serialize it to CSV (cli round trip).
	tbl, err := dataset.GenerateCensus(dataset.USSpec(dataset.ScaleSmall), 2_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := cli.WriteTableCSV(&csv, tbl); err != nil {
		t.Fatal(err)
	}
	spec := dataset.USSpec(dataset.ScaleSmall)
	schemaClause := "Age:ordinal:" + itoa(spec.AgeSize) +
		",Gender:nominal:flat:2" +
		",Occupation:nominal:3level:" + itoa(spec.OccGroups) + "x" + itoa(spec.OccPerGroup) +
		",Income:ordinal:" + itoa(spec.IncomeSize)

	// 2. Publish through the HTTP server.
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	resp, err := http.Post(
		ts.URL+"/publish?schema="+schemaClause+"&epsilon=1&sa=Age,Gender&seed=12",
		"text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// 3. Count over HTTP.
	resp, err = http.Get(ts.URL + "/releases/" + sum.ID + "/count?q=Age=0..29,Occupation=@g2")
	if err != nil {
		t.Fatal(err)
	}
	var counted struct {
		Count float64 `json:"count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&counted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// 4. Export the binary payload and load it with the library.
	resp, err = http.Get(ts.URL + "/releases/" + sum.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := privelet.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// 5. The offline count must match the server's bit for bit.
	q, err := rel.NewQuery().Range("Age", 0, 29).Node("Occupation", "g2").Build()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(offline-counted.Count) > 1e-9 {
		t.Fatalf("offline count %v != server count %v", offline, counted.Count)
	}
}

// TestMarginalMatchesProjectionOfRelease: projecting at huge ε must agree
// with the directly published marginal at huge ε (both ≈ exact).
func TestMarginalMatchesProjectionOfRelease(t *testing.T) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 3_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	exactProj, _, err := marginal.Project(m, tbl.Schema(), []string{"Age", "Occupation"})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := marginal.PublishSet(context.Background(), tbl, [][]string{{"Age", "Occupation"}}, marginal.Options{
		Epsilon: 1e9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rels[0].Noisy.AlmostEqual(exactProj, 1e-2) {
		d, _ := rels[0].Noisy.MaxAbsDiff(exactProj)
		t.Fatalf("marginal differs from projection by %v at huge epsilon", d)
	}
}

// TestVarianceAnalyzerOnCensusWorkload cross-validates the exact-variance
// analyzer on the real 4-attribute census schema against Monte Carlo, at
// one fixed query (the full MC sweep lives in internal/variance).
func TestVarianceAnalyzerOnCensusWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	schema, err := dataset.BrazilSpec(dataset.ScaleSmall).Schema()
	if err != nil {
		t.Fatal(err)
	}
	sa := []string{"Age", "Gender"}
	q, err := query.NewBuilder(schema).
		Range("Age", 10, 20).
		Node("Occupation", "g1").
		Range("Income", 0, 31).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	an, err := variance.NewAnalyzer(schema, 1.0, sa)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := an.QueryVariance(q)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := dataset.NewTable(schema).FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 250
	var sumSq float64
	for i := 0; i < trials; i++ {
		res, err := core.PublishMatrix(context.Background(), zero, schema, core.Options{Epsilon: 1.0, SA: sa, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := q.Eval(res.Noisy)
		if err != nil {
			t.Fatal(err)
		}
		sumSq += v * v
	}
	mc := sumSq / trials
	if rel := math.Abs(mc-exact) / exact; rel > 0.25 { // 250-trial MC noise
		t.Fatalf("exact %v vs MC %v (gap %.3f)", exact, mc, rel)
	}
}

// TestWorkloadErrorTracksExactVariance: across SA choices, the empirical
// mean square error of a real workload must rank configurations in the
// same order as the analyzer's mean exact variance.
func TestWorkloadErrorTracksExactVariance(t *testing.T) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 20_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	truth := query.NewEvaluator(m)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(800, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}

	type config struct {
		sa       []string
		exact    float64
		measured float64
	}
	configs := []config{
		{sa: nil},
		{sa: []string{"Age", "Gender", "Income"}},
	}
	for ci := range configs {
		an, err := variance.NewAnalyzer(schema, 1.0, configs[ci].sa)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := an.Workload(queries)
		if err != nil {
			t.Fatal(err)
		}
		configs[ci].exact = stats.Mean

		res, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1.0, SA: configs[ci].sa, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ev := query.NewEvaluator(res.Noisy)
		var total float64
		for _, q := range queries {
			act, err := truth.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			total += workload.SquareError(got, act)
		}
		configs[ci].measured = total / float64(len(queries))
	}
	if (configs[0].exact < configs[1].exact) != (configs[0].measured < configs[1].measured) {
		t.Fatalf("exact-variance ranking disagrees with measured MSE: %+v", configs)
	}
}

// TestCodecCrossesToolBoundaries: a payload written by the library decodes
// in the codec package and vice versa (guards against drift between the
// Release wrapper and the raw codec).
func TestCodecCrossesToolBoundaries(t *testing.T) {
	tbl, err := dataset.MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rel.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload, _, err := codec.DecodeMapped(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Meta.Epsilon != 2 || payload.Meta.Mechanism != "privelet+" {
		t.Fatalf("meta = %+v", payload.Meta)
	}
	if payload.Noisy.Len() != rel.Matrix().Len() {
		t.Fatal("matrix size drift between Release and codec")
	}
}

// TestReadTableRejectsDataOutsideSchema is failure-injection for the
// ingestion boundary: a CSV valid under one schema must be rejected under
// a narrower one.
func TestReadTableRejectsDataOutsideSchema(t *testing.T) {
	wide, err := cli.ParseSchema("A:ordinal:100")
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := cli.ParseSchema("A:ordinal:10")
	if err != nil {
		t.Fatal(err)
	}
	csv := "5\n50\n"
	if err := cli.ReadRows(wide, strings.NewReader(csv), dataset.NewTable(wide).Append); err != nil {
		t.Fatalf("wide schema should accept: %v", err)
	}
	if err := cli.ReadRows(narrow, strings.NewReader(csv), dataset.NewTable(narrow).Append); err == nil {
		t.Fatal("narrow schema should reject value 50")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
