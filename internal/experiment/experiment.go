// Package experiment reproduces the paper's evaluation section (§VII):
// one runner per figure/table, shared scaling profiles, and text/CSV
// rendering of the series the paper plots. cmd/experiments maps every
// artifact (-fig 6 … 11, table3, vd, vid) to its runner.
package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Profile bundles the experiment knobs. The paper's settings are:
// n = 10M (Brazil) / 8M (US), 40 000 queries, ε ∈ {0.5, 0.75, 1, 1.25},
// 5 quantile bins, SA = {Age, Gender}.
type Profile struct {
	Name    string
	Scale   dataset.Scale
	Tuples  int
	Queries int
	// Epsilons are the privacy levels swept in Figures 6–9.
	Epsilons []float64
	Bins     int
	Seed     uint64
	SA       []string
}

// Small returns the default laptop profile: scaled-down domains, 200k
// tuples, 8k queries. Keeps every figure's shape while finishing in
// seconds (dataset.Scale says why scaled-down domains do).
func Small() Profile {
	return Profile{
		Name: "small", Scale: dataset.ScaleSmall,
		Tuples: 200_000, Queries: 8_000,
		Epsilons: []float64{0.5, 0.75, 1.0, 1.25},
		Bins:     5, Seed: 20100301, SA: []string{"Age", "Gender"},
	}
}

// Medium returns an intermediate profile (minutes).
func Medium() Profile {
	p := Small()
	p.Name, p.Scale = "medium", dataset.ScaleMedium
	p.Tuples, p.Queries = 1_000_000, 20_000
	return p
}

// Full returns the paper-scale profile (Table III domains, 10M/8M tuples,
// 40k queries). Needs several GiB of RAM and tens of minutes.
func Full() Profile {
	p := Small()
	p.Name, p.Scale = "full", dataset.ScaleFull
	p.Tuples, p.Queries = 10_000_000, 40_000
	return p
}

// ProfileByName resolves "small", "medium" or "full".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "full":
		return Full(), nil
	default:
		return Profile{}, fmt.Errorf("experiment: unknown profile %q (want small, medium or full)", name)
	}
}

// Metric selects the error metric/binning key pair of Figures 6–9.
type Metric int

const (
	// SquareErrorByCoverage is Figures 6–7: average square error binned
	// by query coverage quintiles.
	SquareErrorByCoverage Metric = iota
	// RelativeErrorBySelectivity is Figures 8–9: average relative error
	// (with sanity bound 0.1%·n) binned by selectivity quintiles.
	RelativeErrorBySelectivity
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case SquareErrorByCoverage:
		return "avg square error vs query coverage"
	case RelativeErrorBySelectivity:
		return "avg relative error vs query selectivity"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Row is one plotted point: the bin key (mean coverage or selectivity)
// and the mean error of each mechanism in that bin.
type Row struct {
	Key      float64
	Basic    float64
	Privelet float64
	Count    int
}

// EpsilonSeries is one sub-plot (one ε value) of Figures 6–9.
type EpsilonSeries struct {
	Epsilon float64
	Rows    []Row
}

// AccuracyResult is a full figure: one series per ε.
type AccuracyResult struct {
	Dataset string
	Metric  Metric
	Series  []EpsilonSeries
	// Tuples and Queries echo the profile for reporting.
	Tuples, Queries int
}

// RunAccuracy reproduces one of Figures 6–9: the given census dataset,
// Basic vs Privelet+ (SA from the profile), binned per the metric.
func RunAccuracy(spec dataset.CensusSpec, prof Profile, metric Metric) (*AccuracyResult, error) {
	tbl, err := dataset.GenerateCensus(spec, prof.Tuples, prof.Seed)
	if err != nil {
		return nil, err
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		return nil, err
	}
	truth := query.NewEvaluatorWorkers(m, 0)

	gen, err := workload.NewGenerator(tbl.Schema(), 4)
	if err != nil {
		return nil, err
	}
	queries, err := gen.Queries(prof.Queries, rng.New(prof.Seed+1))
	if err != nil {
		return nil, err
	}
	// Ground truth and noisy answers both run on the batch executor the
	// serving layer uses (query.Batch): answers are bit-identical to a
	// serial Count loop at any worker count, so sharing the pipeline
	// costs the experiment nothing in reproducibility.
	actuals, err := query.Batch{Eval: truth}.Execute(context.Background(), queries)
	if err != nil {
		return nil, err
	}
	keys := make([]float64, len(queries))
	for i, q := range queries {
		switch metric {
		case SquareErrorByCoverage:
			keys[i] = q.Coverage()
		case RelativeErrorBySelectivity:
			keys[i] = actuals[i] / float64(prof.Tuples)
		default:
			return nil, fmt.Errorf("experiment: unknown metric %v", metric)
		}
	}
	sanity := workload.SanityBound(prof.Tuples)

	result := &AccuracyResult{
		Dataset: spec.Name, Metric: metric,
		Tuples: prof.Tuples, Queries: prof.Queries,
	}
	for ei, eps := range prof.Epsilons {
		seed := prof.Seed + 100*uint64(ei) + 17
		bres, err := core.PublishMatrix(context.Background(), m, tbl.Schema(), core.Options{Epsilon: eps, SA: tbl.Schema().Names(), Seed: seed})
		if err != nil {
			return nil, err
		}
		pres, err := core.PublishMatrix(context.Background(), m, tbl.Schema(), core.Options{Epsilon: eps, SA: prof.SA, Seed: seed + 1})
		if err != nil {
			return nil, err
		}
		bAns, err := query.Batch{Eval: query.NewEvaluatorWorkers(bres.Noisy, 0)}.Execute(context.Background(), queries)
		if err != nil {
			return nil, err
		}
		pAns, err := query.Batch{Eval: query.NewEvaluatorWorkers(pres.Noisy, 0)}.Execute(context.Background(), queries)
		if err != nil {
			return nil, err
		}
		bErrs := make([]float64, len(queries))
		pErrs := make([]float64, len(queries))
		for i := range queries {
			switch metric {
			case SquareErrorByCoverage:
				bErrs[i] = workload.SquareError(bAns[i], actuals[i])
				pErrs[i] = workload.SquareError(pAns[i], actuals[i])
			case RelativeErrorBySelectivity:
				bErrs[i] = workload.RelativeError(bAns[i], actuals[i], sanity)
				pErrs[i] = workload.RelativeError(pAns[i], actuals[i], sanity)
			}
		}
		bBins, err := workload.QuintileBins(keys, bErrs, prof.Bins)
		if err != nil {
			return nil, err
		}
		pBins, err := workload.QuintileBins(keys, pErrs, prof.Bins)
		if err != nil {
			return nil, err
		}
		series := EpsilonSeries{Epsilon: eps}
		for bi := range bBins {
			series.Rows = append(series.Rows, Row{
				Key:      bBins[bi].AvgKey,
				Basic:    bBins[bi].AvgError,
				Privelet: pBins[bi].AvgError,
				Count:    bBins[bi].Count,
			})
		}
		result.Series = append(result.Series, series)
	}
	return result, nil
}

// TimingPoint is one x-coordinate of Figures 10–11 with both mechanisms'
// wall-clock times.
type TimingPoint struct {
	// N and M describe the input size at this point.
	N, M int
	// Basic and Privelet are the publication wall times.
	Basic, Privelet time.Duration
}

// TimingResult is a full timing figure.
type TimingResult struct {
	Label  string
	Points []TimingPoint
}

// RunTimingVsN reproduces Figure 10: computation time as a function of n
// at fixed m, with SA = ∅ (the paper's worst case for Privelet+).
func RunTimingVsN(m int, ns []int, seed uint64) (*TimingResult, error) {
	spec, err := dataset.UniformSpecForM(m)
	if err != nil {
		return nil, err
	}
	out := &TimingResult{Label: fmt.Sprintf("time vs n (m=%d)", m)}
	for _, n := range ns {
		pt, err := timeOne(spec, n, seed)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// RunTimingVsM reproduces Figure 11: computation time as a function of m
// at fixed n, with SA = ∅.
func RunTimingVsM(n int, ms []int, seed uint64) (*TimingResult, error) {
	out := &TimingResult{Label: fmt.Sprintf("time vs m (n=%d)", n)}
	for _, m := range ms {
		spec, err := dataset.UniformSpecForM(m)
		if err != nil {
			return nil, err
		}
		pt, err := timeOne(spec, n, seed)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// timeOne measures both mechanisms once on a fresh §VII-B synthetic
// table. Timing covers the full pipeline the paper times: frequency
// matrix construction plus noise publication.
func timeOne(spec dataset.UniformSpec, n int, seed uint64) (TimingPoint, error) {
	tbl, err := dataset.GenerateUniform(spec, n, seed)
	if err != nil {
		return TimingPoint{}, err
	}
	schema := tbl.Schema()

	start := time.Now()
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		return TimingPoint{}, err
	}
	if _, err := core.PublishMatrix(context.Background(), m, schema, core.Options{Epsilon: 1.0, SA: schema.Names(), Seed: seed + 1}); err != nil {
		return TimingPoint{}, err
	}
	basicTime := time.Since(start)

	start = time.Now()
	m2, err := tbl.FrequencyMatrix()
	if err != nil {
		return TimingPoint{}, err
	}
	if _, err := core.PublishMatrix(context.Background(), m2, schema, core.Options{Epsilon: 1.0, Seed: seed + 2}); err != nil {
		return TimingPoint{}, err
	}
	priveletTime := time.Since(start)

	return TimingPoint{N: n, M: schema.DomainSize(), Basic: basicTime, Privelet: priveletTime}, nil
}
