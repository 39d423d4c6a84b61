// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VII), plus ablations of the paper's design choices (the
// §V nominal transform, §VI-D's SA set, mean subtraction) and the Hay et
// al. extension. Each BenchmarkFigureN runs the corresponding experiment
// at a bench-sized profile and reports headline metrics via
// b.ReportMetric; cmd/experiments prints the full series at larger
// profiles.
package privelet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	privelet "repro"
	"repro/internal/atomicfile"
	"repro/internal/baseline"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/haar"
	"repro/internal/hay"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/nominal"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/workload"
)

// benchProfile is a scaled-down experiment profile so `go test -bench=.`
// finishes in minutes. The series' shape (who wins, where the crossover
// falls) is preserved; `experiments -profile medium` prints medium-profile
// numbers.
func benchProfile() experiment.Profile {
	return experiment.Profile{
		Name: "bench", Scale: dataset.ScaleSmall,
		Tuples: 30_000, Queries: 2_000,
		Epsilons: []float64{0.5, 1.0},
		Bins:     5, Seed: 4242, SA: []string{"Age", "Gender"},
	}
}

// reportAccuracy surfaces the figure's headline numbers: Basic's and
// Privelet+'s error in the top-coverage (or top-selectivity) bin at the
// smallest ε, and their ratio.
func reportAccuracy(b *testing.B, res *experiment.AccuracyResult) {
	b.Helper()
	rows := res.Series[0].Rows
	top := rows[len(rows)-1]
	b.ReportMetric(top.Basic, "basic-top-bin-err")
	b.ReportMetric(top.Privelet, "privelet-top-bin-err")
	if top.Privelet > 0 {
		b.ReportMetric(top.Basic/top.Privelet, "basic/privelet")
	}
}

// --- Table III -------------------------------------------------------

func BenchmarkTable3DomainSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiment.WriteTableIII(io.Discard, dataset.ScaleFull); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6-9: accuracy -------------------------------------------

func benchAccuracy(b *testing.B, spec dataset.CensusSpec, metric experiment.Metric) {
	b.Helper()
	prof := benchProfile()
	var last *experiment.AccuracyResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAccuracy(spec, prof, metric)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportAccuracy(b, last)
}

func BenchmarkFigure6(b *testing.B) {
	benchAccuracy(b, dataset.BrazilSpec(dataset.ScaleSmall), experiment.SquareErrorByCoverage)
}

func BenchmarkFigure7(b *testing.B) {
	benchAccuracy(b, dataset.USSpec(dataset.ScaleSmall), experiment.SquareErrorByCoverage)
}

func BenchmarkFigure8(b *testing.B) {
	benchAccuracy(b, dataset.BrazilSpec(dataset.ScaleSmall), experiment.RelativeErrorBySelectivity)
}

func BenchmarkFigure9(b *testing.B) {
	benchAccuracy(b, dataset.USSpec(dataset.ScaleSmall), experiment.RelativeErrorBySelectivity)
}

// --- Figures 10-11: computation time ---------------------------------

func BenchmarkFigure10TimeVsN(b *testing.B) {
	var last *experiment.TimingResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTimingVsN(1<<14, []int{20_000, 40_000, 60_000}, 99)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Linearity check metric: time(3x)/time(1x) should be near 3 for a
	// mechanism linear in n (frequency-matrix construction dominates at
	// fixed m).
	first, lastPt := last.Points[0], last.Points[len(last.Points)-1]
	b.ReportMetric(float64(lastPt.Privelet)/float64(first.Privelet), "privelet-scale-ratio")
	b.ReportMetric(float64(lastPt.Basic)/float64(first.Basic), "basic-scale-ratio")
}

func BenchmarkFigure11TimeVsM(b *testing.B) {
	var last *experiment.TimingResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTimingVsM(20_000, []int{1 << 12, 1 << 14, 1 << 16}, 98)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	first, lastPt := last.Points[0], last.Points[len(last.Points)-1]
	b.ReportMetric(float64(lastPt.Privelet)/float64(first.Privelet), "privelet-scale-ratio")
	b.ReportMetric(float64(lastPt.M)/float64(first.M), "m-scale-ratio")
}

// --- §V-D / §VI-D worked examples as measured ablations ---------------

// BenchmarkAblationNominalVsHaar measures the §V-D claim: empirical
// subtree-query noise variance of the nominal transform vs the HWT on
// the imposed order, on a 64-leaf, height-3 hierarchy at ε=1.
func BenchmarkAblationNominalVsHaar(b *testing.B) {
	h, err := hierarchy.ThreeLevel(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	s := dataset.MustSchema(dataset.NominalAttr("Occ", h))
	m := matrix.MustNew(64)
	q, err := query.NewBuilder(s).Node("Occ", "g0").Build()
	if err != nil {
		b.Fatal(err)
	}
	const trials = 200
	var hwtVar, nomVar float64
	for i := 0; i < b.N; i++ {
		var hwtSq, nomSq float64
		for t := 0; t < trials; t++ {
			seed := uint64(i*trials + t)
			hres, err := baseline.HWTOrdinalized(m, s, 1.0, seed)
			if err != nil {
				b.Fatal(err)
			}
			hv, err := q.Eval(hres.Noisy)
			if err != nil {
				b.Fatal(err)
			}
			hwtSq += hv * hv
			nres, err := core.PublishMatrix(context.Background(), m, s, core.Options{Epsilon: 1.0, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			nv, err := q.Eval(nres.Noisy)
			if err != nil {
				b.Fatal(err)
			}
			nomSq += nv * nv
		}
		hwtVar = hwtSq / trials
		nomVar = nomSq / trials
	}
	b.ReportMetric(hwtVar, "hwt-variance")
	b.ReportMetric(nomVar, "nominal-variance")
	b.ReportMetric(hwtVar/nomVar, "hwt/nominal")
	b.ReportMetric(privacy.HaarVarianceBound(1, 64), "hwt-bound")
	b.ReportMetric(privacy.NominalVarianceBound(1, 3), "nominal-bound")
}

// BenchmarkAblationSmallDomain measures §VI-D: on |A| = 16, Basic beats
// Privelet — the motivation for Privelet+'s SA set.
func BenchmarkAblationSmallDomain(b *testing.B) {
	s := dataset.MustSchema(dataset.OrdinalAttr("A", 16))
	m := matrix.MustNew(16)
	q, err := query.NewBuilder(s).Range("A", 0, 15).Build()
	if err != nil {
		b.Fatal(err)
	}
	const trials = 300
	var basicVar, privVar float64
	for i := 0; i < b.N; i++ {
		var basicSq, privSq float64
		for t := 0; t < trials; t++ {
			seed := uint64(i*trials + t)
			bres, err := core.PublishMatrix(context.Background(), m, s, core.Options{Epsilon: 1.0, SA: s.Names(), Seed: seed, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			bv, err := q.Eval(bres.Noisy)
			if err != nil {
				b.Fatal(err)
			}
			basicSq += bv * bv
			pres, err := core.PublishMatrix(context.Background(), m, s, core.Options{Epsilon: 1.0, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			pv, err := q.Eval(pres.Noisy)
			if err != nil {
				b.Fatal(err)
			}
			privSq += pv * pv
		}
		basicVar = basicSq / trials
		privVar = privSq / trials
	}
	b.ReportMetric(basicVar, "basic-variance")
	b.ReportMetric(privVar, "privelet-variance")
}

// BenchmarkAblationMeanSubtraction quantifies the §V-B refinement: noise
// variance of subtree queries with and without the mean-subtraction step.
func BenchmarkAblationMeanSubtraction(b *testing.B) {
	h, err := hierarchy.ThreeLevel(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := nominal.New(h)
	if err != nil {
		b.Fatal(err)
	}
	w := tr.Weights()
	lambda := 2.0 * tr.GeneralizedSensitivity() // λ at ε=1
	src := rng.New(777)
	const trials = 400
	var withVar, withoutVar float64
	for i := 0; i < b.N; i++ {
		var withSq, withoutSq float64
		for t := 0; t < trials; t++ {
			coeffs := make([]float64, tr.OutputSize())
			for k := range coeffs {
				if w[k] == 0 {
					continue
				}
				coeffs[k] = src.Laplace(lambda / w[k])
			}
			raw := append([]float64(nil), coeffs...)
			if err := tr.MeanSubtract(coeffs); err != nil {
				b.Fatal(err)
			}
			recWith, err := tr.Inverse(coeffs)
			if err != nil {
				b.Fatal(err)
			}
			recWithout, err := tr.Inverse(raw)
			if err != nil {
				b.Fatal(err)
			}
			var a, c float64
			for leaf := 0; leaf < 8; leaf++ { // subtree of the first group
				a += recWith[leaf]
				c += recWithout[leaf]
			}
			withSq += a * a
			withoutSq += c * c
		}
		withVar = withSq / trials
		withoutVar = withoutSq / trials
	}
	b.ReportMetric(withVar, "with-meansub-variance")
	b.ReportMetric(withoutVar, "without-meansub-variance")
}

// BenchmarkAblationSASweep times Privelet+ across SA choices on the small
// census and reports each release's analytic bound.
func BenchmarkAblationSASweep(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 20_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	choices := []struct {
		name string
		sa   []string
	}{
		{"none", nil},
		{"age-gender", []string{"Age", "Gender"}},
		{"all", []string{"Age", "Gender", "Occupation", "Income"}},
	}
	for _, c := range choices {
		b.Run(c.name, func(b *testing.B) {
			var bound float64
			for i := 0; i < b.N; i++ {
				res, err := core.PublishMatrix(context.Background(), m, tbl.Schema(), core.Options{Epsilon: 1, SA: c.sa, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				bound = res.VarianceBound
			}
			b.ReportMetric(bound, "variance-bound")
		})
	}
}

// --- Extension: Hay et al. vs Privelet, 1-D ---------------------------

func BenchmarkExtensionHay1D(b *testing.B) {
	const mSize = 1024
	s := dataset.MustSchema(dataset.OrdinalAttr("A", mSize))
	hist := make([]float64, mSize)
	r := rng.New(31)
	for i := range hist {
		hist[i] = math.Floor(r.Float64() * 50)
	}
	m, err := matrix.FromSlice(hist)
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.NewBuilder(s).Range("A", 100, 899).Build()
	if err != nil {
		b.Fatal(err)
	}
	act, err := q.Eval(m)
	if err != nil {
		b.Fatal(err)
	}
	const trials = 100
	var hayMSE, privMSE float64
	for i := 0; i < b.N; i++ {
		var haySq, privSq float64
		for t := 0; t < trials; t++ {
			seed := uint64(i*trials + t)
			hres, err := hay.Publish(context.Background(), hist, 1.0, seed)
			if err != nil {
				b.Fatal(err)
			}
			var hv float64
			for j := 100; j <= 899; j++ {
				hv += hres.Histogram[j]
			}
			haySq += (hv - act) * (hv - act)
			pres, err := core.PublishMatrix(context.Background(), m, s, core.Options{Epsilon: 1.0, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			pv, err := q.Eval(pres.Noisy)
			if err != nil {
				b.Fatal(err)
			}
			privSq += (pv - act) * (pv - act)
		}
		hayMSE = haySq / trials
		privMSE = privSq / trials
	}
	b.ReportMetric(hayMSE, "hay-mse")
	b.ReportMetric(privMSE, "privelet-mse")
}

// --- Micro-benchmarks on the substrates --------------------------------

func BenchmarkHaarForward4096(b *testing.B) {
	v := make([]float64, 4096)
	r := rng.New(1)
	for i := range v {
		v[i] = r.Float64()
	}
	dst, scratch := make([]float64, 4096), make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		haar.ForwardPaddedIntoScratch(v, dst, scratch)
	}
}

func BenchmarkHaarInverse4096(b *testing.B) {
	v := make([]float64, 4096)
	r := rng.New(2)
	for i := range v {
		v[i] = r.Float64()
	}
	dst := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		haar.InverseInto(v, dst)
	}
}

func BenchmarkNominalForward4096(b *testing.B) {
	h, err := hierarchy.ThreeLevel(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := nominal.New(h)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, tr.InputSize())
	dst, scratch := make([]float64, tr.OutputSize()), make([]float64, tr.OutputSize())
	r := rng.New(3)
	for i := range v {
		v[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ForwardIntoScratch(v, dst, scratch)
	}
}

func BenchmarkHNForward2D(b *testing.B) {
	h, err := hierarchy.ThreeLevel(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	hn, err := transform.New(transform.Ordinal(256), transform.Nominal(h))
	if err != nil {
		b.Fatal(err)
	}
	m := matrix.MustNew(256, 256)
	r := rng.New(4)
	data := m.Data()
	for i := range data {
		data[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hn.Forward(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublishCensusSmall(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 50_000, 6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PublishMatrix(context.Background(), m, tbl.Schema(), core.Options{
			Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel publish engine ------------------------------------------

// benchCensusMatrix builds the 4-D Table III census shape (Brazil, small
// scale) used by the engine benchmarks.
func benchCensusMatrix(b *testing.B) (*matrix.Matrix, *dataset.Schema) {
	b.Helper()
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 50_000, 6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	return m, tbl.Schema()
}

// BenchmarkPublishEngine measures the publish hot path at fixed worker
// counts, for both the sub-matrix fan-out regime (SA = {Age, Gender},
// 128 sub-matrices) and the vector fan-out regime (SA = ∅).
func BenchmarkPublishEngine(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	regimes := []struct {
		name string
		sa   []string
	}{
		{"sa=age-gender", []string{"Age", "Gender"}},
		{"sa=none", nil},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, reg := range regimes {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", reg.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.PublishMatrix(context.Background(), m, schema, core.Options{
						Epsilon: 1, SA: reg.sa, Seed: uint64(i), Parallelism: w,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPublishSpeedup times the serial and 4-worker engines in the
// same run and reports the wall-clock ratio. On a multi-core box the
// target is ≥ 2× at 4 workers; on a single-core box the ratio ~1 shows
// the pool costs nothing when there is no hardware to use.
func BenchmarkPublishSpeedup(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	sa := []string{"Age", "Gender"}
	var serial, par4 time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := core.PublishMatrix(context.Background(), m, schema, core.Options{
			Epsilon: 1, SA: sa, Seed: uint64(i), Parallelism: 1,
		}); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(start)
		start = time.Now()
		if _, err := core.PublishMatrix(context.Background(), m, schema, core.Options{
			Epsilon: 1, SA: sa, Seed: uint64(i), Parallelism: 4,
		}); err != nil {
			b.Fatal(err)
		}
		par4 += time.Since(start)
	}
	b.ReportMetric(serial.Seconds()/float64(b.N)*1e3, "serial-ms/op")
	b.ReportMetric(par4.Seconds()/float64(b.N)*1e3, "4worker-ms/op")
	b.ReportMetric(serial.Seconds()/par4.Seconds(), "speedup-4w")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkInjectLaplace measures the Laplace injection passes — the
// stage PR 4 parallelized — at fixed worker counts on a multi-chunk
// domain (16 × 64Ki entries = 1M draws per op). Uniform is the Basic
// mechanism's pass; weighted is Privelet's per-coefficient λ/W pass.
// Output is bit-identical across worker counts, so the counts differ
// only in wall clock (BENCH_publish.json records them as inject_*, and
// keeps the 1-core-container recording under history_ns_per_op).
func BenchmarkInjectLaplace(b *testing.B) {
	const n = 16 * privacy.NoiseChunk
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("uniform/workers=%d", workers), func(b *testing.B) {
			m := matrix.MustNew(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := privacy.InjectLaplaceUniformCtx(context.Background(), m, 2, uint64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	wv := [][]float64{make([]float64, 16), make([]float64, privacy.NoiseChunk)}
	for i := range wv[0] {
		wv[0][i] = float64(1 + i%5)
	}
	for i := range wv[1] {
		wv[1][i] = float64(1 + i%9)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("weighted/workers=%d", workers), func(b *testing.B) {
			m := matrix.MustNew(16, privacy.NoiseChunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := privacy.InjectLaplaceCtx(context.Background(), m, wv, 2, uint64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// weighted4d stresses the per-entry coordinate bookkeeping itself:
	// the same 1M entries as weighted, but across four dimensions (the
	// census shape's dimensionality), where the pass's former per-entry
	// Coords call paid d divisions per entry and the odometer walk pays
	// one increment — the shape that shows the delta.
	wv4 := [][]float64{
		make([]float64, 16), make([]float64, 16),
		make([]float64, 64), make([]float64, 64),
	}
	for _, v := range wv4 {
		for i := range v {
			v[i] = float64(1 + i%7)
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("weighted4d/workers=%d", workers), func(b *testing.B) {
			m := matrix.MustNew(16, 16, 64, 64) // 1Mi entries
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := privacy.InjectLaplaceCtx(context.Background(), m, wv4, 2, uint64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrefixSum measures the summed-area-table build — the query
// evaluator's whole cost, and the dominant cost of reloading a spilled
// release — serial vs pooled, on the 4-D census shape and on a flat 1M
// histogram (whose single long scan cannot parallelize without breaking
// bit-identity, so it pins the pool's no-overhead property instead).
func BenchmarkPrefixSum(b *testing.B) {
	census, _ := benchCensusMatrix(b)
	shapes := []struct {
		name string
		m    *matrix.Matrix
	}{
		{"census4d", census},
		{"hist1m", matrix.MustNew(1 << 20)},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				// Restore the source values (untimed) before every pass:
				// prefix-summing the same buffer repeatedly would compound
				// the entries toward +Inf and measure a different matrix
				// than the one the benchmark claims.
				work := sh.m.Clone()
				src := sh.m.Data()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(work.Data(), src)
					b.StartTimer()
					work.PrefixSumExec(workers)
				}
			})
		}
	}
}

// BenchmarkIngestCSV measures the ingest layer of POST /publish: the
// 50k census rows of the engine benchmarks, as the CSV the server
// receives, read by cli.ReadRows into a fresh privelet.Publisher.
func BenchmarkIngestCSV(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 50_000, 6)
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := cli.WriteTableCSV(&csv, tbl); err != nil {
		b.Fatal(err)
	}
	b.Run("census50k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pub, err := privelet.NewPublisher(tbl.Schema())
			if err != nil {
				b.Fatal(err)
			}
			if err := cli.ReadRows(tbl.Schema(), bytes.NewReader(csv.Bytes()), pub.Add); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpillRelease measures a store's write-through spill of one
// census release: the format-v2 payload (noisy matrix plus its
// summed-area table) encoded by store.EncodeRelease through
// atomicfile.Write into a temporary directory, then removed, as a
// publish followed by a delete does.
func BenchmarkSpillRelease(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	res, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	table := res.Noisy.Clone()
	table.PrefixSumExec(0)
	p := &codec.Payload{
		Meta:   codec.Meta{Mechanism: "privelet+", Epsilon: 1, Rho: res.Rho, Lambda: res.Lambda},
		Schema: schema, Noisy: res.Noisy, Table: table, Total: res.Noisy.Total(),
	}
	path := filepath.Join(b.TempDir(), "r1.prvl")
	b.Run("census-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := atomicfile.Write(path, func(w io.Writer) error { return store.EncodeRelease(w, p) }); err != nil {
				b.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryBatch measures the batch query engine at the paper's
// workload scale — 40 000 random §VII-A queries against the 4-D census
// release — at fixed worker counts. Answers are bit-identical across
// worker counts (the batch determinism contract), so the counts differ
// only in wall clock; BENCH_query.json records the baseline (with the
// usual 1-core-container caveat).
func BenchmarkQueryBatch(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	ev := query.NewEvaluatorWorkers(m, 0)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("40k/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (query.Batch{Eval: ev, Workers: workers}).Execute(context.Background(), queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryStream measures ExecuteStream over the same 40k census
// workload as BenchmarkQueryBatch, reporting wall clock per op plus
// time-to-first-answer (ns until the first chunk reaches the sink) —
// the latency the streaming pipeline buys: a client starts consuming
// answers after one chunk executes, not after the whole workload.
func BenchmarkQueryStream(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	ev := query.NewEvaluatorWorkers(m, 0)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("40k/workers=%d", workers), func(b *testing.B) {
			var ttfa time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				first := true
				sink := func([]float64) error {
					if first {
						ttfa += time.Since(start)
						first = false
					}
					return nil
				}
				n, err := (query.Batch{Eval: ev, Workers: workers}).
					ExecuteStream(context.Background(), query.SliceSource(queries), sink)
				if err != nil {
					b.Fatal(err)
				}
				if n != len(queries) {
					b.Fatalf("delivered %d", n)
				}
			}
			b.ReportMetric(float64(ttfa.Nanoseconds())/float64(b.N), "ttfa-ns")
		})
	}
}

// BenchmarkQueryCacheHit measures the answer cache's hit path: the
// 40k workload re-executed against a warm per-release cache, where
// every answer is a key render plus a map probe instead of a 2^d
// evaluator lookup. The cold pass is the same workload against a fresh
// cache (miss + insert on top of the evaluator's work).
func BenchmarkQueryCacheHit(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	ev := query.NewEvaluatorWorkers(m, 0)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("40k/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch := query.Batch{Eval: ev, Workers: 1, Cache: query.NewAnswerCache(1<<16, nil), Schema: schema}
			if _, err := batch.Execute(context.Background(), queries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("40k/warm", func(b *testing.B) {
		batch := query.Batch{Eval: ev, Workers: 1, Cache: query.NewAnswerCache(1<<16, nil), Schema: schema}
		if _, err := batch.Execute(context.Background(), queries); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := batch.Execute(context.Background(), queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryParse measures the parse layer of a streamed workload:
// the 40k census specs of BenchmarkQueryBatch, rendered in the line
// wire format and parsed back through workload.Queries over
// NewLineSpecs, as POST /releases/{id}/query parses its body. Queries
// are dropped as they come, so the allocations reported are the
// reader's and the parser's own.
func BenchmarkQueryParse(b *testing.B) {
	_, schema := benchCensusMatrix(b)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := workload.WriteQueries(&body, schema, queries); err != nil {
		b.Fatal(err)
	}
	b.Run("40k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.Queries(schema, workload.NewLineSpecs(bytes.NewReader(body.Bytes())))
			n := 0
			for {
				_, ok, err := src()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n != len(queries) {
				b.Fatalf("parsed %d queries", n)
			}
		}
	})
}

// BenchmarkAnswerLines measures the write layer of a streamed workload:
// the 40k answers of BenchmarkQueryBatch's workload over a published
// (noisy) census release, written through workload.AnswerLines in
// DefaultStreamChunk chunks with a trailer, as the line answer format
// of POST /releases/{id}/query writes them.
func BenchmarkAnswerLines(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	res, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	answers, err := query.Batch{Eval: query.NewEvaluatorWorkers(res.Noisy, 0)}.Execute(context.Background(), queries)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("40k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aw := workload.NewAnswerLines(io.Discard)
			for lo := 0; lo < len(answers); lo += query.DefaultStreamChunk {
				if err := aw.WriteChunk(answers[lo:min(lo+query.DefaultStreamChunk, len(answers))]); err != nil {
					b.Fatal(err)
				}
			}
			if err := aw.Close(workload.Trailer{Answers: len(answers), Status: workload.StatusOK}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryServe measures the pipeline of POST /releases/{id}/query
// as its handler runs it: the 40k census specs of
// BenchmarkQueryBatch in the line wire format, read through
// NewLineSpecs, parsed by workload.Stream into ExecuteStream's chunk
// slots, answered over a published census release at GOMAXPROCS workers
// (the daemon's default), and written through AnswerLines into
// io.Discard with a trailer. The parse, stream and write series above
// time those layers one at a time; this one times them overlapped, as
// the handler does, minus HTTP and the socket.
func BenchmarkQueryServe(b *testing.B) {
	m, schema := benchCensusMatrix(b)
	res, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1, SA: []string{"Age", "Gender"}, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	ev := query.NewEvaluatorWorkers(res.Noisy, 0)
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(40_000, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := workload.WriteQueries(&body, schema, queries); err != nil {
		b.Fatal(err)
	}
	b.Run("40k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aw := workload.NewAnswerLines(io.Discard)
			src := workload.Stream(schema, workload.NewLineSpecs(bytes.NewReader(body.Bytes())))
			n, err := query.Batch{Eval: ev}.ExecuteStream(context.Background(), src, aw.WriteChunk)
			if err != nil {
				b.Fatal(err)
			}
			if n != len(queries) {
				b.Fatalf("answered %d queries", n)
			}
			if err := aw.Close(workload.Trailer{Answers: n, Status: workload.StatusOK}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBasicPublishCensusSmall(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 50_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	schema := tbl.Schema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1, SA: schema.Names(), Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrequencyMatrix(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 100_000, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.FrequencyMatrix(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEvaluation compares prefix-sum against naive evaluation —
// the design decision that makes 40k-query workloads feasible.
func BenchmarkQueryEvaluation(b *testing.B) {
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 50_000, 9)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(tbl.Schema(), 4)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(256, rng.New(10))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prefix", func(b *testing.B) {
		ev := query.NewEvaluator(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := ev.Count(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := q.Eval(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
