package cli

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/dataset"
)

// recordRows reads body through read into a sink that keeps a copy of
// every row and fails the failAt-th call (0: never), returning the rows
// delivered and the error string ("" for none).
func recordRows(read func(*dataset.Schema, io.Reader, func(...int) error) error, s *dataset.Schema, body []byte, failAt int) ([][]int, string) {
	var rows [][]int
	err := read(s, bytes.NewReader(body), func(vals ...int) error {
		rows = append(rows, slices.Clone(vals))
		if len(rows) == failAt {
			return errBoom
		}
		return nil
	})
	if err != nil {
		return rows, err.Error()
	}
	return rows, ""
}

// FuzzReadRows holds the byte-level CSV reader behind POST /publish to
// the strings-based reader it replaced (referenceReadRows): for every
// body, field count and failing sink call, both deliver the same rows in
// the same order and end with the same error string, or both succeed.
// Publish bodies are untrusted and need no credentials.
func FuzzReadRows(f *testing.F) {
	long := append(bytes.Repeat([]byte("1"), 1<<20), '\n')
	for _, seed := range []struct {
		body   string
		width  uint8
		failAt uint16
	}{
		{"0,1\r\n3,2\r\n", 2, 0},
		{"\n  \n0,1\n\t\n 2 , 0 \n", 2, 0},
		{"\t1\t, 2 \n\u00853\u0085,4\n\u00a05,\u00a06\u00a0\n", 2, 0},
		{"+5,007,-0\n", 3, 0},
		{"1234567890123456789\n12345678901234567890\n", 1, 0},
		{"999999999999999999,000000000000000001\n", 2, 0},
		{",\n1,\n", 2, 0},
		{"1,2,\n", 2, 0},
		{"1,2,3\n", 2, 0},
		{"1\n", 2, 0},
		{string(long), 1, 0},
		{"0\n1\n2\n", 1, 2},
		{"x,1,2\n", 2, 0},
		{"1,x\n", 3, 0},
	} {
		f.Add([]byte(seed.body), seed.width, seed.failAt)
	}
	f.Fuzz(func(t *testing.T, body []byte, width uint8, failAt uint16) {
		clauses := make([]string, max(1, width%5))
		for i := range clauses {
			clauses[i] = fmt.Sprintf("A%d:ordinal:8", i)
		}
		s, err := ParseSchema(strings.Join(clauses, ","))
		if err != nil {
			t.Fatal(err)
		}
		gotRows, gotErr := recordRows(ReadRows, s, body, int(failAt))
		wantRows, wantErr := recordRows(referenceReadRows, s, body, int(failAt))
		if gotErr != wantErr {
			t.Fatalf("error %.200q, reference %.200q", gotErr, wantErr)
		}
		if !slices.EqualFunc(gotRows, wantRows, slices.Equal) {
			i := 0
			for i < min(len(gotRows), len(wantRows)) && slices.Equal(gotRows[i], wantRows[i]) {
				i++
			}
			t.Fatalf("row %d differs: %d rows, reference %d", i+1, len(gotRows), len(wantRows))
		}
	})
}

// TestReadRowsAllocationBound pins the ingest of POST /publish: 50k
// census rows read into a privelet.Publisher make at most 0.01
// allocations per row, so the reader's cost is a fixed handful of
// allocations per body, not per row.
func TestReadRowsAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const rows = 50_000
	tbl, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteTableCSV(&csv, tbl); err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := ReadRows(tbl.Schema(), bytes.NewReader(csv.Bytes()), pub.Add); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 0.01 {
		t.Fatalf("%.0f allocations per %d rows (%.4f per row), want ≤ 0.01 per row", allocs, rows, perRow)
	}
	if pub.Rows() != 4*rows {
		t.Fatalf("publisher folded %d rows, want %d", pub.Rows(), 4*rows)
	}
	t.Logf("%.0f allocations per %d rows", allocs, rows)
}
