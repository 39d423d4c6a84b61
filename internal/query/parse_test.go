package query_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// TestParseAllocs bounds the one-off Parse that every GET /count runs:
// the spec's bytes and one query's bounds and flags, three allocations
// for a census spec, however the parser reads it.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	schema, err := dataset.BrazilSpec(dataset.ScaleSmall).Schema()
	if err != nil {
		t.Fatal(err)
	}
	const spec = "Age=28..46,Gender=#1..1,Occupation=#55..55,Income=18..40"
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := query.Parse(schema, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Parse(%q) allocated %v times, want at most 3", spec, allocs)
	}
}

// TestParseTrimsNames: a clause's name is trimmed before the lookup, so
// an attribute whose own name has an edge space matches no spelling of
// it, not even the exact one.
func TestParseTrimsNames(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.OrdinalAttr("Age ", 10),
		dataset.OrdinalAttr(" Inc", 10),
	)
	for _, spec := range []string{"Age =1..2", " Inc=1..2"} {
		if _, err := query.Parse(schema, spec); err == nil {
			t.Errorf("Parse(%q) = nil error, want no attribute named", spec)
		}
		if _, err := query.ReferenceParse(schema, spec); err == nil {
			t.Errorf("ReferenceParse(%q) = nil error, want no attribute named", spec)
		}
	}
}

// TestParseIntoSlotShape: ParseInto refuses a slot whose bounds do not
// match the schema's attributes, as a programming error rather than a
// bad spec (it does not wrap ErrInvalid), and ExecuteStream reports it
// when a source's schema and the evaluator disagree.
func TestParseIntoSlotShape(t *testing.T) {
	schema := dataset.MustSchema(dataset.OrdinalAttr("Age", 10))
	p := query.NewParser(schema)
	var zero query.Query
	if err := p.ParseInto(&zero, []byte("Age=1..2")); err == nil || errors.Is(err, query.ErrInvalid) {
		t.Fatalf("ParseInto into a zero Query: err = %v, want a slot error not wrapping ErrInvalid", err)
	}
	ev, _ := batchFixture(t, 0) // two dimensions
	src := func(dst *query.Query) (bool, error) { return true, p.ParseInto(dst, []byte("Age=1..2")) }
	if _, err := (query.Batch{Eval: ev}).ExecuteStream(context.Background(), src, func([]float64) error { return nil }); err == nil || errors.Is(err, query.ErrInvalid) {
		t.Fatalf("ExecuteStream over a one-attribute source and a 2-D evaluator: err = %v", err)
	}
}
