// Hierarchy: nominal attributes with custom generalization trees — the
// paper's Figure 1 country example. Shows how OLAP roll-up/drill-down
// predicates become contiguous leaf intervals, and how the nominal
// wavelet transform's utility bound beats the ordinalized Haar bound
// (§V-D) for hierarchy-shaped domains.
package main

import (
	"context"
	"fmt"
	"log"

	privelet "repro"
	"repro/internal/privacy"
)

func main() {
	// The paper's Figure 1: Any → continents → countries.
	root := &privelet.HierarchyNode{Label: "Any", Children: []*privelet.HierarchyNode{
		{Label: "North America", Children: []*privelet.HierarchyNode{
			{Label: "USA"}, {Label: "Canada"}, {Label: "Mexico"},
		}},
		{Label: "South America", Children: []*privelet.HierarchyNode{
			{Label: "Brazil"}, {Label: "Argentina"}, {Label: "Chile"},
		}},
		{Label: "Europe", Children: []*privelet.HierarchyNode{
			{Label: "France"}, {Label: "Germany"}, {Label: "Spain"},
		}},
	}}
	countries, err := privelet.BuildHierarchy(root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hierarchy (leaf intervals in the imposed order):")
	fmt.Println(countries)

	schema, err := privelet.NewSchema(
		privelet.NominalAttr("Country", countries),
		privelet.OrdinalAttr("Year", 16),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A small shipment log: (country leaf, year), streamed into the
	// publisher's frequency matrix.
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		log.Fatal(err)
	}
	data := [][2]int{
		{0, 3}, {0, 4}, {1, 3}, {2, 7}, {3, 9}, {3, 10}, {3, 11},
		{4, 2}, {5, 5}, {6, 8}, {7, 8}, {7, 9}, {8, 1}, {0, 12},
	}
	for _, d := range data {
		if err := pub.Add(d[0], d[1]); err != nil {
			log.Fatal(err)
		}
	}

	release, err := pub.Publish(context.Background(), "privelet+", privelet.Params{Epsilon: 2.0, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// Roll-up: whole continents; drill-down: single countries. Both are
	// single contiguous ranges after normalization.
	for _, label := range []string{"North America", "South America", "Europe", "Brazil", "USA"} {
		q, err := release.NewQuery().Node("Country", label).Build()
		if err != nil {
			log.Fatal(err)
		}
		count, err := release.Count(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shipments to %-14s ≈ %6.1f (coverage %.2f)\n", label, count, q.Coverage())
	}

	// §V-D in numbers for this hierarchy (9 leaves, height 3) at ε=1:
	hwt := privacy.HaarVarianceBound(1.0, countries.LeafCount())
	nom := privacy.NominalVarianceBound(1.0, countries.Height())
	fmt.Printf("\nnoise variance bounds at ε=1 for the Country attribute alone:\n")
	fmt.Printf("  Haar on imposed order: %8.1f (Equation 4)\n", hwt)
	fmt.Printf("  nominal transform:     %8.1f (Equation 6) → %.1f× lower\n", nom, hwt/nom)
}
