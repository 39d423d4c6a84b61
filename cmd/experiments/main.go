// Command experiments regenerates every table and figure of the paper's
// evaluation section (§VII). Each figure prints the same rows/series the
// paper plots, so a run reads directly against the paper's figures.
//
// Usage:
//
//	experiments -fig all                 # everything, small profile
//	experiments -fig 6 -profile medium   # Figure 6 at medium scale
//	experiments -fig 10 -profile small   # timing vs n
//	experiments -fig table3|vd|vid       # Table III and worked examples
//	experiments -fig 6 -csv              # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/experiment"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "artifact: all, 6, 7, 8, 9, 10, 11, table3, vd, vid")
		profile = flag.String("profile", "small", "scaling profile: small, medium, full")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text (figures 6-9)")
		seed    = flag.Uint64("seed", 0, "override the profile's base seed (0 keeps default)")
		queries = flag.Int("queries", 0, "override the profile's query count (0 keeps default)")
		tuples  = flag.Int("tuples", 0, "override the profile's tuple count (0 keeps default)")
	)
	flag.Parse()

	prof, err := experiment.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *queries > 0 {
		prof.Queries = *queries
	}
	if *tuples > 0 {
		prof.Tuples = *tuples
	}

	run := func(name string) {
		if err := runOne(name, prof, *csv); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	if *fig == "all" {
		for _, name := range []string{"table3", "6", "7", "8", "9", "10", "11", "vd", "vid"} {
			run(name)
		}
		return
	}
	run(*fig)
}

func runOne(fig string, prof experiment.Profile, csv bool) error {
	out := os.Stdout
	switch fig {
	case "table3":
		return experiment.WriteTableIII(out, prof.Scale)
	case "6":
		return accuracy(dataset.BrazilSpec(prof.Scale), prof, experiment.SquareErrorByCoverage, csv)
	case "7":
		return accuracy(dataset.USSpec(prof.Scale), prof, experiment.SquareErrorByCoverage, csv)
	case "8":
		return accuracy(dataset.BrazilSpec(prof.Scale), prof, experiment.RelativeErrorBySelectivity, csv)
	case "9":
		return accuracy(dataset.USSpec(prof.Scale), prof, experiment.RelativeErrorBySelectivity, csv)
	case "10":
		m, ns := timingVsNParams(prof)
		res, err := experiment.RunTimingVsN(m, ns, prof.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 10 — computation time vs n (SA=∅)")
		return experiment.WriteTiming(out, res)
	case "11":
		n, ms := timingVsMParams(prof)
		res, err := experiment.RunTimingVsM(n, ms, prof.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 11 — computation time vs m (SA=∅)")
		return experiment.WriteTiming(out, res)
	case "vd":
		return experiment.WorkedExampleVD(out, 512, 3, 1.0)
	case "vid":
		return experiment.WorkedExampleVID(out, 16, 1.0)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func accuracy(spec dataset.CensusSpec, prof experiment.Profile, metric experiment.Metric, csv bool) error {
	res, err := experiment.RunAccuracy(spec, prof, metric)
	if err != nil {
		return err
	}
	if csv {
		return experiment.WriteAccuracyCSV(os.Stdout, res)
	}
	name := figureName(spec.Name, metric)
	fmt.Printf("%s\n", name)
	return experiment.WriteAccuracy(os.Stdout, res)
}

func figureName(ds string, metric experiment.Metric) string {
	switch {
	case ds == "Brazil" && metric == experiment.SquareErrorByCoverage:
		return "Figure 6 — average square error vs query coverage (Brazil)"
	case ds == "US" && metric == experiment.SquareErrorByCoverage:
		return "Figure 7 — average square error vs query coverage (US)"
	case ds == "Brazil" && metric == experiment.RelativeErrorBySelectivity:
		return "Figure 8 — average relative error vs query selectivity (Brazil)"
	default:
		return "Figure 9 — average relative error vs query selectivity (US)"
	}
}

// timingVsNParams returns Figure 10's sweep at the profile's scale. The
// paper uses m = 2²⁴ with n from 1M to 5M.
func timingVsNParams(prof experiment.Profile) (m int, ns []int) {
	switch prof.Name {
	case "full":
		return 1 << 24, []int{1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000}
	case "medium":
		return 1 << 20, []int{250_000, 500_000, 750_000, 1_000_000, 1_250_000}
	default:
		return 1 << 16, []int{50_000, 100_000, 150_000, 200_000, 250_000}
	}
}

// timingVsMParams returns Figure 11's sweep. The paper uses n = 5·10⁶
// with m from 2²² to 2²⁶.
func timingVsMParams(prof experiment.Profile) (n int, ms []int) {
	switch prof.Name {
	case "full":
		return 5_000_000, []int{1 << 22, 1 << 23, 1 << 24, 1 << 25, 1 << 26}
	case "medium":
		return 1_000_000, []int{1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22}
	default:
		return 250_000, []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
