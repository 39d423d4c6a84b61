// Quickstart: publish the paper's Table I medical-records example under
// ε-differential privacy and answer the motivating query ("how many
// diabetes patients are under 50?") from the noisy release.
//
// This example uses the library's API surface: a streaming Publisher
// that folds rows straight into the frequency matrix (no table
// buffering) and mechanism selection by registry name.
package main

import (
	"context"
	"fmt"
	"log"

	privelet "repro"
)

func main() {
	// Schema: ordinal Age (5 groups: <30, 30-39, 40-49, 50-59, >=60) and
	// nominal HasDiabetes (flat hierarchy: Yes, No).
	diabetes, err := privelet.FlatHierarchy(2)
	if err != nil {
		log.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Age", 5),
		privelet.NominalAttr("HasDiabetes", diabetes),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Stream the eight tuples of Table I (0 = Yes, 1 = No) into a
	// Publisher. Each Add folds the row into the frequency matrix
	// immediately — memory stays O(domain) however many rows arrive, so
	// the same loop ingests eight tuples or eight billion.
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		log.Fatal(err)
	}
	rows := [][2]int{
		{0, 1}, {0, 1}, {1, 1}, {2, 1}, {2, 0}, {2, 1}, {3, 1}, {4, 0},
	}
	for _, r := range rows {
		if err := pub.Add(r[0], r[1]); err != nil {
			log.Fatal(err)
		}
	}

	// Publish once; query forever. The mechanism is chosen by name from
	// the registry (privelet.Mechanisms() lists what is available) and
	// SA = {HasDiabetes} keeps the two-value attribute out of the
	// wavelet transform (Corollary 1).
	release, err := pub.Publish(context.Background(), "privelet+", privelet.Params{
		Epsilon:  1.0,
		SA:       []string{"HasDiabetes"},
		Seed:     42,
		Sanitize: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mechanisms:", privelet.Mechanisms())
	fmt.Println("release:", release)

	// The paper's intro query: diabetes patients with age under 50.
	q, err := release.NewQuery().
		Range("Age", 0, 2).
		Leaf("HasDiabetes", 0).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	noisy, err := release.Count(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diabetes patients under 50: noisy=%g (true answer is 1)\n", noisy)

	// Worst-case noise variance for any range-count query against this
	// release, per Corollary 1.
	fmt.Printf("analytic noise variance bound: %.1f\n", release.VarianceBound())
}
