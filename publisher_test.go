package privelet_test

import (
	"context"
	"strings"
	"testing"

	privelet "repro"
)

func TestPublisherMatchesTablePublish(t *testing.T) {
	occ, err := privelet.ThreeLevelHierarchy(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Age", 9),
		privelet.NominalAttr("Occ", occ),
	)
	if err != nil {
		t.Fatal(err)
	}
	table := privelet.NewTable(schema)
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		row := []int{(i * 5) % 9, (i * 3) % 6}
		if err := table.Append(row...); err != nil {
			t.Fatal(err)
		}
		if err := pub.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	if pub.Rows() != table.Len() {
		t.Fatalf("publisher rows %d != table rows %d", pub.Rows(), table.Len())
	}
	// Identical counts: the streamed frequency matrix equals the
	// buffered table's.
	fm, err := table.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := fm.MaxAbsDiff(pub.Frequency().M); d != 0 {
		t.Fatalf("streamed frequency matrix diverged by %v", d)
	}
	// And therefore identical releases at the same seed.
	want, err := publishTable(t, table, "privelet+", privelet.Params{Epsilon: 1, SA: []string{"Occ"}, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pub.Publish(context.Background(), "privelet+", privelet.Params{Epsilon: 1, SA: []string{"Occ"}, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := want.Matrix().MaxAbsDiff(got.Matrix()); d != 0 {
		t.Fatalf("streamed release diverged by %v", d)
	}
}

// TestPublisherStreamsWithoutTable is the ROADMAP's streaming-ingest
// claim made executable: millions of rows flow through a Publisher whose
// memory footprint is the O(domain) frequency matrix — row ingest
// allocates nothing, so no Table (or any other O(n) buffer) can be
// hiding behind Add. The buffered path would hold n·d int32s; here n is
// 3 million against a 64-entry domain.
func TestPublisherStreamsWithoutTable(t *testing.T) {
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("A", 8),
		privelet.OrdinalAttr("B", 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}

	// Per-row allocation must be exactly zero — O(domain), not O(n).
	// (The harness calls the closure once before measuring, hence the
	// n+1 accounting below.)
	row := []int{0, 0}
	var i int
	const n = 3_000_000
	if avg := testing.AllocsPerRun(n, func() {
		row[0] = i & 7
		row[1] = (i >> 3) & 7
		if err := pub.Add(row...); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("Add allocates %v objects per row; streaming ingest must allocate none", avg)
	}
	if pub.Rows() != n+1 {
		t.Fatalf("rows = %d, want %d", pub.Rows(), n+1)
	}
	total := 0.0
	for _, v := range pub.Frequency().M.Data() {
		total += v
	}
	if int(total) != n+1 {
		t.Fatalf("frequency mass %v != rows %d", total, n+1)
	}

	// The accumulated counts publish like any other frequency.
	rel, err := pub.Publish(context.Background(), "privelet", privelet.Params{Epsilon: 1e9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := rel.NewQuery().Build() // full domain
	if err != nil {
		t.Fatal(err)
	}
	c, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if diff := c - float64(n+1); diff > 1 || diff < -1 {
		t.Fatalf("full-domain count %v, want ~%d", c, n+1)
	}
}

func TestPublisherValidation(t *testing.T) {
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("A", 4))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Add(4); err == nil || !strings.Contains(err.Error(), "out of domain") {
		t.Fatalf("out-of-domain Add: err = %v", err)
	}
	if err := pub.Add(-1); err == nil {
		t.Fatal("negative value accepted")
	}
	if err := pub.Add(1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if pub.Rows() != 0 {
		t.Fatalf("failed Adds counted: rows = %d", pub.Rows())
	}
	if _, err := privelet.NewPublisher(nil); err == nil {
		t.Fatal("NewPublisher accepted a nil schema")
	}
}

func TestPublisherAddBatchAndTable(t *testing.T) {
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("A", 4))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.AddBatch([][]int{{0}, {1}, {1}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := pub.AddBatch([][]int{{2}, {9}}); err == nil || !strings.Contains(err.Error(), "batch row 1") {
		t.Fatalf("bad batch row not reported: %v", err)
	}
	table := privelet.NewTable(schema)
	for _, v := range []int{0, 2, 3} {
		if err := table.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.AddTable(table); err != nil {
		t.Fatal(err)
	}
	// 4 batch rows + 1 from the failing batch's good prefix + 3 table rows.
	if pub.Rows() != 8 {
		t.Fatalf("rows = %d, want 8", pub.Rows())
	}
	want := []float64{2, 2, 2, 2}
	for i, v := range pub.Frequency().M.Data() {
		if v != want[i] {
			t.Fatalf("counts = %v, want %v", pub.Frequency().M.Data(), want)
		}
	}
}
