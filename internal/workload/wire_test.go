package workload

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/rng"
)

// readAll drains a wire-format reader through Queries, the way the
// server and the CLI consume a workload body.
func readAll(schema *dataset.Schema, sr SpecReader) ([]query.Query, error) {
	src := Queries(schema, sr)
	var out []query.Query
	for {
		q, ok, err := src()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, q)
	}
}

// TestWireRoundTrip: WriteQueries → NewLineSpecs reproduces a generated
// workload's normalized intervals exactly, on the census schema (mixed
// ordinal/nominal attributes).
func TestWireRoundTrip(t *testing.T) {
	s := censusSchema(t)
	gen, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(300, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteQueries(&buf, s, queries); err != nil {
		t.Fatal(err)
	}
	back, err := readAll(s, NewLineSpecs(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(queries) {
		t.Fatalf("round trip: %d queries, want %d", len(back), len(queries))
	}
	for i, q := range queries {
		wlo, whi := q.Lo(), q.Hi()
		glo, ghi := back[i].Lo(), back[i].Hi()
		for a := range wlo {
			if wlo[a] != glo[a] || whi[a] != ghi[a] {
				t.Fatalf("query %d attr %d: [%d,%d], want [%d,%d]", i, a, glo[a], ghi[a], wlo[a], whi[a])
			}
		}
	}
}

func TestLineSpecsSkipBlanksAndNumberErrors(t *testing.T) {
	s := censusSchema(t)
	queries, err := readAll(s, NewLineSpecs(strings.NewReader("Age=1..3\n\n  \n*\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("len = %d, want 2", len(queries))
	}

	_, err = readAll(s, NewLineSpecs(strings.NewReader("Age=1..3\n\nAge=9..1\n")))
	if err == nil || !errors.Is(err, query.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err %q does not carry the line number", err)
	}
}

func TestJSONSpecsForms(t *testing.T) {
	s := censusSchema(t)
	for _, body := range []string{
		`["Age=1..3", "*", "Gender=#1"]`,
		`{"queries": ["Age=1..3", "*", "Gender=#1"]}`,
		`{"comment": {"nested": [1, 2]}, "queries": ["Age=1..3", "*", "Gender=#1"]}`,
	} {
		queries, err := readAll(s, NewJSONSpecs(strings.NewReader(body)))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if len(queries) != 3 {
			t.Fatalf("%s: len = %d, want 3", body, len(queries))
		}
	}
	for _, body := range []string{
		``,
		`42`,
		`{"nope": []}`,
		`{"queries": "Age=1..3"}`,
		`["Age=1..3", 7]`,
		`["Age=9..1"]`,
		`["Ghost=1..2"]`,
	} {
		if _, err := readAll(s, NewJSONSpecs(strings.NewReader(body))); !errors.Is(err, query.ErrInvalid) {
			t.Fatalf("%q: err = %v, want ErrInvalid", body, err)
		}
	}
}
