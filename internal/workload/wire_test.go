package workload

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/rng"
)

// readAll drains a wire-format reader through Queries, the way the
// server and the CLI consume a workload body.
func readAll(schema *dataset.Schema, sr *SpecReader) ([]query.Query, error) {
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

// censusWorkload draws n §VII-A queries against the census schema and
// returns their specs and the line-format body WriteQueries renders.
func censusWorkload(t testing.TB, s *dataset.Schema, n int) ([]string, []byte) {
	t.Helper()
	gen, err := NewGenerator(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(n, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]string, n)
	for i, q := range queries {
		specs[i] = q.Spec(s)
	}
	var buf bytes.Buffer
	if err := WriteQueries(&buf, s, queries); err != nil {
		t.Fatal(err)
	}
	return specs, buf.Bytes()
}

// TestQueriesOutliveTheSource: queries kept from a streamed workload
// stay intact however many specs the source parses after them. They
// share the parser's slabs, so if a slab were ever handed out twice,
// later specs would overwrite earlier queries' bounds, and the kept
// queries would stop matching a fresh Parse of their own specs.
func TestQueriesOutliveTheSource(t *testing.T) {
	s := censusSchema(t)
	specs, body := censusWorkload(t, s, 12_000)
	kept, err := readAll(s, NewLineSpecs(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(specs) {
		t.Fatalf("kept %d queries, want %d", len(kept), len(specs))
	}
	for i, q := range kept {
		want, err := query.Parse(s, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(q.Lo(), want.Lo()) || !slices.Equal(q.Hi(), want.Hi()) || q.Spec(s) != specs[i] {
			t.Fatalf("kept query %d = %v..%v %q, its spec %q parses to %v..%v",
				i, q.Lo(), q.Hi(), q.Spec(s), specs[i], want.Lo(), want.Hi())
		}
	}
}

// TestQueriesAllocationBound: parsing a 40k-query census workload
// through Queries and the line reader allocates at most 0.01 times per
// query — the reader, the parser and its slabs, not anything per spec.
func TestQueriesAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	s := censusSchema(t)
	const n = 40_000
	_, body := censusWorkload(t, s, n)
	allocs := testing.AllocsPerRun(3, func() {
		src := Queries(s, NewLineSpecs(bytes.NewReader(body)))
		for got := 0; ; got++ {
			_, ok, err := src()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if got != n {
					t.Fatalf("parsed %d queries, want %d", got, n)
				}
				return
			}
		}
	})
	if per := allocs / n; per > 0.01 {
		t.Fatalf("%.0f allocations for %d queries = %.4f per query, want ≤ 0.01", allocs, n, per)
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

// TestStreamAllocationFree: Stream parses a 40k-query census workload
// into one reused slot with a fixed number of allocations — the line
// reader, its buffer, the parser and the source — and none per spec.
func TestStreamAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	s := censusSchema(t)
	const n = 40_000
	_, body := censusWorkload(t, s, n)
	slot, err := query.Parse(s, "*")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		src := Stream(s, NewLineSpecs(bytes.NewReader(body)))
		for got := 0; ; got++ {
			ok, err := src(&slot)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if got != n {
					t.Fatalf("parsed %d queries, want %d", got, n)
				}
				return
			}
		}
	})
	if allocs > 8 {
		t.Fatalf("Stream allocated %v times for %d queries, want at most 8", allocs, n)
	}
}

// TestLineSpecsLineLimit: the line reader's buffer starts at 64 KiB and
// grows for a longer line, up to the 1 MiB line limit; a longer line is
// bufio.ErrTooLong, which the server answers with a 400.
func TestLineSpecsLineLimit(t *testing.T) {
	s := censusSchema(t)
	long := strings.Repeat(" ", 200<<10) + "Age=1..3"
	queries, err := readAll(s, NewLineSpecs(strings.NewReader("Age=0..1\n"+long+"\n")))
	if err != nil || len(queries) != 2 || queries[1].Lo()[0] != 1 || queries[1].Hi()[0] != 3 {
		t.Fatalf("a 200 KiB line: %d queries, err %v", len(queries), err)
	}
	_, err = readAll(s, NewLineSpecs(strings.NewReader(strings.Repeat(" ", 1<<20)+"Age=1..3\n")))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line over 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
