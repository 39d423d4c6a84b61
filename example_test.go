package privelet_test

import (
	"context"
	"fmt"
	"log"

	privelet "repro"
)

// Example demonstrates the end-to-end flow: schema, streamed rows,
// publish, query. A huge ε keeps the output deterministic for the doc
// test.
func Example() {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		log.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Age", 8),
		privelet.NominalAttr("Gender", gender),
	)
	if err != nil {
		log.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range [][2]int{{1, 0}, {2, 1}, {2, 0}, {5, 1}, {7, 0}} {
		if err := pub.Add(row[0], row[1]); err != nil {
			log.Fatal(err)
		}
	}
	rel, err := pub.Publish(context.Background(), "privelet+", privelet.Params{
		Epsilon:  1e12, // effectively noiseless, for a stable example
		Seed:     1,
		Sanitize: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	q, err := rel.NewQuery().Range("Age", 0, 3).Build()
	if err != nil {
		log.Fatal(err)
	}
	count, err := rel.Count(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("people with age < 4: %.0f\n", count)
	// Output: people with age < 4: 3
}

// ExampleRecommendSA shows Corollary 1's SA rule on a mixed schema.
func ExampleRecommendSA() {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		log.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Income", 4096),
		privelet.NominalAttr("Gender", gender),
	)
	if err != nil {
		log.Fatal(err)
	}
	sa, err := privelet.RecommendSA(schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sa)
	// Output: [Gender]
}

// ExampleNewAnalyzer computes an exact per-query noise variance without
// publishing anything.
func ExampleNewAnalyzer() {
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("Age", 16))
	if err != nil {
		log.Fatal(err)
	}
	an, err := privelet.NewAnalyzer(schema, 1.0, nil)
	if err != nil {
		log.Fatal(err)
	}
	q, err := privelet.NewQueryBuilder(schema).Range("Age", 0, 15).Build()
	if err != nil {
		log.Fatal(err)
	}
	v, err := an.QueryVariance(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact variance: %.0f (worst-case bound: 600)\n", v)
	// Output: exact variance: 200 (worst-case bound: 600)
}
