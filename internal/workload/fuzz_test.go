package workload

// Native fuzz targets for the wire formats that cross the HTTP boundary:
// the workload line reader the server decodes request bodies with, and
// the answer-line reader clients decode responses with. Every
// reader faces arbitrary bytes, so the first property is simply "no
// panic"; the second is the round-trip contract each format documents:
// an accepted workload re-emitted by WriteQueries reads back through
// the line reader with identical canonical specs, and an accepted answer
// stream re-emitted by AnswerLines reads back bit-identically with the
// same trailer. Seed corpora live under testdata/fuzz/; CI runs a short
// -fuzz smoke on top of them.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

func FuzzLineSpecs(f *testing.F) {
	for _, seed := range []string{
		"",
		"*\n",
		"Age=0..30\nGender=#1\nOccupation=@g3\n",
		"Occupation=#3..5\nIncome=10..20\n\n  \n*\n",
		"Age=1..3\nAge=9..1\n", // valid line then invalid
		"Age=0..3,Gender=#0\n", // multi-predicate line
		"# not a comment format\n",
		"Age=0..999999999999999999999\n",
	} {
		f.Add([]byte(seed))
	}
	schema := censusSchema(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		queries, err := readAll(schema, NewLineSpecs(bytes.NewReader(data)))
		if err != nil {
			// Rejected input: the only property is that the reader
			// failed cleanly instead of panicking.
			return
		}
		checkLineRoundTrip(t, schema, queries)
	})
}

// checkLineRoundTrip asserts that accepted queries, re-emitted by
// WriteQueries (the documented inverse of NewLineSpecs), read back with
// identical canonical specs.
func checkLineRoundTrip(t *testing.T, schema *dataset.Schema, queries []query.Query) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteQueries(&buf, schema, queries); err != nil {
		t.Fatalf("WriteQueries on accepted workload: %v", err)
	}
	back, err := readAll(schema, NewLineSpecs(&buf))
	if err != nil {
		t.Fatalf("re-reading emitted workload: %v", err)
	}
	if len(back) != len(queries) {
		t.Fatalf("round trip: %d queries, want %d", len(back), len(queries))
	}
	for i, q := range queries {
		w, g := q.Spec(schema), back[i].Spec(schema)
		if w != g {
			t.Fatalf("query %d: spec %q round-tripped to %q", i, w, g)
		}
	}
}

func FuzzReadAnswerLines(f *testing.F) {
	for _, seed := range []string{
		"# answers=0 status=ok\n",
		"1\n2.5\n# answers=2 status=ok\n",
		"-0\nNaN\n+Inf\n-Inf\n# answers=4 status=ok\n",
		"3\n# answers=3 status=error error=\"engine: boom\"\n",
		"0.30000000000000004\n# answers=1 status=ok\n",
		"1\n2\n", // truncated: answers then EOF
		"",
		"abc\n",
		"# answers=x status=ok\n",
		"# answers=1\n",
		"1e400\n# answers=1 status=ok\n", // out of float64 range
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		answers, tr, err := ReadAnswerLines(bytes.NewReader(data))
		if err != nil {
			// Rejected or truncated stream: failing cleanly is the
			// whole property.
			return
		}
		// Accepted stream round-trips bit-identically: the line writer
		// formats with strconv 'g'/-1 exactly so that every float64 —
		// NaN, infinities, signed zero included — survives re-reading.
		var buf bytes.Buffer
		w := NewAnswerLines(&buf)
		if err := w.WriteChunk(answers); err != nil {
			t.Fatalf("WriteChunk: %v", err)
		}
		if err := w.Close(tr); err != nil {
			t.Fatalf("Close: %v", err)
		}
		back, tr2, err := ReadAnswerLines(&buf)
		if err != nil {
			t.Fatalf("re-reading emitted stream: %v", err)
		}
		if len(back) != len(answers) {
			t.Fatalf("round trip: %d answers, want %d", len(back), len(answers))
		}
		for i := range answers {
			if math.Float64bits(back[i]) != math.Float64bits(answers[i]) {
				t.Fatalf("answer %d: %v (%#x) round-tripped to %v (%#x)",
					i, answers[i], math.Float64bits(answers[i]), back[i], math.Float64bits(back[i]))
			}
		}
		if tr2 != tr {
			t.Fatalf("trailer %+v round-tripped to %+v", tr, tr2)
		}
	})
}
