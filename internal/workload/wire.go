// Wire format for query workloads. Experiments (§VII-A), the HTTP batch
// endpoint, and cmd/privelet -query all move workloads through one
// representation, so there is exactly one way a workload exists outside
// the process: lines, one query.Parse spec per line
// ("Age=30..49,Occ=#3..5"), blank lines skipped — the CSV-friendly form,
// written by WriteQueries and read by NewLineSpecs.
//
// A workload streams twice over: a SpecReader yields specs one at a
// time (the body text is never buffered), and Stream adapts it into a
// query.Source so parsing pipelines straight into a streaming batch
// execution — a million-query workload never exists in memory whole,
// only as the two in-flight chunks of query.Batch.ExecuteStream.

package workload

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/query"
)

// SpecReader streams query specs from a line-format body: one spec per
// line, blank lines skipped.
type SpecReader struct {
	sc   *bufio.Scanner
	line int
}

// NewLineSpecs returns a SpecReader over the line wire format.
func NewLineSpecs(r io.Reader) *SpecReader {
	sc := bufio.NewScanner(r)
	// Start at 64 KiB and grow only for a longer line, up to 1 MiB.
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &SpecReader{sc: sc}
}

// Next returns the next spec's bytes, ok=false on clean end of input,
// or an error. The bytes are valid only until the next call to Next:
// they are the scanner's buffer.
func (sr *SpecReader) Next() ([]byte, bool, error) {
	for sr.sc.Scan() {
		sr.line++
		spec := sr.sc.Bytes()
		if isBlank(spec) {
			continue
		}
		return spec, true, nil
	}
	if err := sr.sc.Err(); err != nil {
		return nil, false, fmt.Errorf("workload: reading queries: %w", err)
	}
	return nil, false, nil
}

// Pos describes the position of the most recently returned spec
// ("line 7"), for error messages that must point a client at the
// offending line of a 40 000-line workload.
func (sr *SpecReader) Pos() string { return fmt.Sprintf("line %d", sr.line) }

// Stream adapts a SpecReader into a query.Source by parsing each spec
// against schema straight into the slot ExecuteStream hands it
// (query.Parser.ParseInto) — the pipeline stage that lets wire-format
// decoding overlap batch execution, without an allocation or a Query
// copy per spec. Parse failures carry the reader's position and wrap
// query.ErrInvalid (a client error); reader failures pass through as
// the reader reported them.
func Stream(schema *dataset.Schema, sr *SpecReader) query.Source {
	p := query.NewParser(schema)
	return func(dst *query.Query) (bool, error) {
		spec, ok, err := sr.Next()
		if err != nil || !ok {
			return false, err
		}
		if err := p.ParseInto(dst, spec); err != nil {
			return false, fmt.Errorf("workload: %s: %w", sr.Pos(), err)
		}
		return true, nil
	}
}

// Queries is Stream for a caller that keeps the queries: each call
// returns the next query, ok=false at the end, or Stream's error. One
// query.Parser serves the whole workload, so the queries share its
// slabs; they stay valid after the reader moves on.
func Queries(schema *dataset.Schema, sr *SpecReader) func() (query.Query, bool, error) {
	p := query.NewParser(schema)
	return func() (query.Query, bool, error) {
		spec, ok, err := sr.Next()
		if err != nil || !ok {
			return query.Query{}, false, err
		}
		q, err := p.Parse(spec)
		if err != nil {
			return query.Query{}, false, fmt.Errorf("workload: %s: %w", sr.Pos(), err)
		}
		return q, true, nil
	}
}

// isBlank reports whether the line holds only ASCII whitespace (the
// line reader's skip rule, kept allocation-free for 40k-line bodies).
// The workload reader checks the scanner's bytes, the answer reader its
// lines.
func isBlank[T []byte | string](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// WriteQueries emits the queries in the line wire format, one spec per
// line — the inverse of NewLineSpecs. schema must be the schema the queries
// were built against.
func WriteQueries(w io.Writer, schema *dataset.Schema, queries []query.Query) error {
	bw := bufio.NewWriter(w)
	for _, q := range queries {
		if _, err := bw.WriteString(q.Spec(schema)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
