package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
)

// WriteAccuracy renders an accuracy figure as aligned text, one block per
// ε — the same rows the paper plots in Figures 6–9.
func WriteAccuracy(w io.Writer, r *AccuracyResult) error {
	var keyCol string
	switch r.Metric {
	case SquareErrorByCoverage:
		keyCol = "coverage"
	case RelativeErrorBySelectivity:
		keyCol = "selectivity"
	default:
		keyCol = "key"
	}
	if _, err := fmt.Fprintf(w, "%s dataset — %s (n=%d, %d queries)\n",
		r.Dataset, r.Metric, r.Tuples, r.Queries); err != nil {
		return err
	}
	for _, s := range r.Series {
		if _, err := fmt.Fprintf(w, "\n  epsilon = %g\n", s.Epsilon); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-14s %14s %14s %10s %7s\n",
			keyCol, "Basic", "Privelet+", "ratio", "count"); err != nil {
			return err
		}
		for _, row := range s.Rows {
			ratio := math.Inf(1)
			if row.Privelet > 0 {
				ratio = row.Basic / row.Privelet
			}
			if _, err := fmt.Fprintf(w, "  %-14.4e %14.6g %14.6g %10.3g %7d\n",
				row.Key, row.Basic, row.Privelet, ratio, row.Count); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteAccuracyCSV renders an accuracy figure as CSV
// (dataset,metric,epsilon,key,basic,privelet,count).
func WriteAccuracyCSV(w io.Writer, r *AccuracyResult) error {
	if _, err := fmt.Fprintln(w, "dataset,metric,epsilon,key,basic,privelet,count"); err != nil {
		return err
	}
	metric := "square_error_by_coverage"
	if r.Metric == RelativeErrorBySelectivity {
		metric = "relative_error_by_selectivity"
	}
	for _, s := range r.Series {
		for _, row := range s.Rows {
			if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%d\n",
				r.Dataset, metric, s.Epsilon, row.Key, row.Basic, row.Privelet, row.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTiming renders a timing figure (Figures 10–11) as aligned text.
func WriteTiming(w io.Writer, r *TimingResult) error {
	if _, err := fmt.Fprintf(w, "%s\n", r.Label); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %12s %12s %14s %14s\n", "n", "m", "Basic", "Privelet+"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "  %12d %12d %14s %14s\n",
			p.N, p.M, p.Basic.Round(1e6), p.Privelet.Round(1e6)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteTableIII renders Table III — the attribute domain sizes of both
// census datasets at the given scale (hierarchy heights parenthesized,
// exactly as the paper prints them).
func WriteTableIII(w io.Writer, scale dataset.Scale) error {
	if _, err := fmt.Fprintf(w, "Table III — attribute domains (%s scale)\n", scale); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-8s %8s %10s %12s %8s\n",
		"", "Age", "Gender", "Occupation", "Income"); err != nil {
		return err
	}
	for _, spec := range []dataset.CensusSpec{dataset.BrazilSpec(scale), dataset.USSpec(scale)} {
		if _, err := fmt.Fprintf(w, "  %-8s %8d %10s %12s %8d\n",
			spec.Name, spec.AgeSize, "2 (2)",
			fmt.Sprintf("%d (3)", spec.OccSize()), spec.IncomeSize); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WorkedExampleVD reproduces the §V-D analytic comparison for a nominal
// attribute with domain size m and hierarchy height h: the HWT bound
// (Equation 4) vs the nominal-transform bound (Equation 6).
func WorkedExampleVD(w io.Writer, m, h int, eps float64) error {
	hwt := privacy.HaarVarianceBound(eps, m)
	nom := privacy.NominalVarianceBound(eps, h)
	_, err := fmt.Fprintf(w,
		"§V-D worked example (m=%d leaves, h=%d, ε=%g)\n"+
			"  Privelet+HWT   noise variance bound: %10.4g   (paper: 4400/ε² at m=512)\n"+
			"  Privelet+Nom   noise variance bound: %10.4g   (paper:  288/ε² at h=3)\n"+
			"  reduction: %.1f×\n\n",
		m, h, eps, hwt, nom, hwt/nom)
	return err
}

// WorkedExampleVID reproduces the §VI-D analytic comparison for a small
// ordinal domain |A|: the Privelet bound 2·(2P/ε)²·H vs Basic's
// |A|·8/ε².
func WorkedExampleVID(w io.Writer, size int, eps float64) error {
	p := privacy.POrdinal(size)
	h := privacy.HOrdinal(size)
	priv := 2 * (2 * p / eps) * (2 * p / eps) * h
	basic := privacy.BasicVarianceBound(eps, size)
	viaEq7, err := privacy.PriveletPlusVarianceBound(eps, []int{size}, nil)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"§VI-D worked example (|A|=%d, ε=%g)\n"+
			"  Privelet  noise variance bound: %10.4g   (paper: 600/ε² at |A|=16)\n"+
			"  Basic     noise variance bound: %10.4g   (paper: 128/ε² at |A|=16)\n"+
			"  Privelet+ with SA={A} (≡Basic): %10.4g\n"+
			"  → put A in SA whenever |A| ≤ P(A)²·H(A) = %.4g\n\n",
		size, eps, priv, basic, viaEq7, p*p*h)
	return err
}

// SummarizeBounds prints Corollary 1 bounds for every SA subset choice of
// a schema (used by the tuning example and the SA-sweep ablation). The
// subsets are encoded by bitmask over attribute indices.
func SummarizeBounds(w io.Writer, schema *dataset.Schema, eps float64) error {
	d := schema.NumAttrs()
	if d > 16 {
		return fmt.Errorf("experiment: too many attributes (%d) for exhaustive SA sweep", d)
	}
	if _, err := fmt.Fprintf(w, "Corollary 1 bounds by SA choice (ε=%g)\n", eps); err != nil {
		return err
	}
	type entry struct {
		names string
		bound float64
	}
	var best entry
	best.bound = math.Inf(1)
	for mask := 0; mask < 1<<d; mask++ {
		var names []string
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				names = append(names, schema.Attr(i).Name)
			}
		}
		plan, err := core.NewPlan(schema, eps, names)
		if err != nil {
			return err
		}
		label := "{" + strings.Join(names, ",") + "}"
		if _, err := fmt.Fprintf(w, "  SA=%-40s bound %12.4g\n", label, plan.VarianceBound); err != nil {
			return err
		}
		if plan.VarianceBound < best.bound {
			best = entry{names: label, bound: plan.VarianceBound}
		}
	}
	_, err := fmt.Fprintf(w, "  best: SA=%s (bound %.4g)\n\n", best.names, best.bound)
	return err
}
