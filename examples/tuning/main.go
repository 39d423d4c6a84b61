// Tuning: choosing Privelet+'s SA set. Corollary 1 says an attribute
// belongs in SA when |A| ≤ P(A)²·H(A) — per-entry noise then beats
// transform-domain noise. This example sweeps every SA subset of a
// census schema, prints the analytic bound for each, and verifies the
// recommendation empirically at one ε.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	privelet "repro"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	spec := dataset.BrazilSpec(dataset.ScaleSmall)
	schema, err := spec.Schema()
	if err != nil {
		log.Fatal(err)
	}

	// Analytic sweep over all 2^4 SA subsets.
	if err := experiment.SummarizeBounds(os.Stdout, schema, 1.0); err != nil {
		log.Fatal(err)
	}

	// The closed-form rule.
	recommended, err := privelet.RecommendSA(schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RecommendSA (|A| ≤ P²H rule): %v\n\n", recommended)

	// Empirical check: mean square error over a random workload for three
	// SA choices.
	table, err := dataset.GenerateCensus(spec, 50_000, 11)
	if err != nil {
		log.Fatal(err)
	}
	truthM, err := table.FrequencyMatrix()
	if err != nil {
		log.Fatal(err)
	}
	truth := query.NewEvaluator(truthM)
	freq, err := privelet.TableFrequency(table)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(schema, 4)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := gen.Queries(2_000, rng.New(13))
	if err != nil {
		log.Fatal(err)
	}

	choices := []struct {
		label string
		sa    []string
	}{
		{"SA = ∅ (plain Privelet)", nil},
		{"SA = recommended", recommended},
		{"SA = everything (Basic)", []string{"Age", "Gender", "Occupation", "Income"}},
	}
	fmt.Printf("%-28s %16s\n", "choice", "mean sq error")
	for _, c := range choices {
		rel, err := privelet.PublishWith(context.Background(), "privelet+", freq, privelet.Params{Epsilon: 1.0, SA: c.sa, Seed: 17})
		if err != nil {
			log.Fatal(err)
		}
		var total float64
		for _, q := range queries {
			act, err := truth.Count(q)
			if err != nil {
				log.Fatal(err)
			}
			got, err := rel.Count(q)
			if err != nil {
				log.Fatal(err)
			}
			total += workload.SquareError(got, act)
		}
		fmt.Printf("%-28s %16.1f\n", c.label, total/float64(len(queries)))
	}
}
