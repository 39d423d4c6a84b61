// Wire format for query workloads. Experiments (§VII-A), the HTTP batch
// endpoint, and cmd/privelet -query all move workloads through the same
// two representations so there is exactly one way a workload exists
// outside the process:
//
//   - lines: one query.Parse spec per line ("Age=30..49,Occ=#3..5"),
//     blank lines skipped — the CSV-friendly form, written by
//     WriteQueries and read by NewLineSpecs;
//   - JSON: either a bare array of spec strings or an object
//     {"queries": ["spec", ...]}, read by NewJSONSpecs.
//
// Both representations stream twice over: a SpecReader yields specs one
// at a time (the body text is never buffered), and Stream adapts it
// into a query.Source so parsing pipelines straight into a streaming
// batch execution — a million-query workload never exists in memory
// whole, only as the two in-flight chunks of query.Batch.ExecuteStream.

package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/query"
)

// SpecReader streams query specs from one wire-format body. Next
// returns the next spec's bytes, ok=false on clean end of input, or an
// error. The bytes are valid only until the next call to Next: a reader
// may reuse them. Pos describes the position of the most recently
// returned spec ("line 7" for the line format, "query 7" for JSON) for
// error messages that must point a client at the offending entry of a
// 40 000-line workload.
type SpecReader interface {
	Next() (spec []byte, ok bool, err error)
	Pos() string
}

// lineSpecs reads the line wire format: one spec per line, blank lines
// skipped.
type lineSpecs struct {
	sc   *bufio.Scanner
	line int
}

// NewLineSpecs returns a SpecReader over the line wire format.
func NewLineSpecs(r io.Reader) SpecReader {
	sc := bufio.NewScanner(r)
	// Start at 64 KiB and grow only for a longer line, up to 1 MiB.
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &lineSpecs{sc: sc}
}

func (l *lineSpecs) Next() ([]byte, bool, error) {
	for l.sc.Scan() {
		l.line++
		spec := l.sc.Bytes()
		if isBlank(spec) {
			continue
		}
		return spec, true, nil
	}
	if err := l.sc.Err(); err != nil {
		return nil, false, fmt.Errorf("workload: reading queries: %w", err)
	}
	return nil, false, nil
}

func (l *lineSpecs) Pos() string { return fmt.Sprintf("line %d", l.line) }

// jsonSpecs reads the JSON wire format: a bare array of spec strings,
// or an object whose "queries" field is such an array (other fields are
// ignored). The decoder walks the array token by token, so the body
// text is never held whole. Malformed JSON wraps query.ErrInvalid — for
// an API endpoint either way the client sent a bad workload.
type jsonSpecs struct {
	dec *json.Decoder
	// inArray is set once the opening '[' of the spec array is consumed.
	inArray bool
	n       int
	// spec is decoded into in place, and buf holds its bytes for the
	// caller until the next call.
	spec string
	buf  []byte
}

// NewJSONSpecs returns a SpecReader over the JSON wire format.
func NewJSONSpecs(r io.Reader) SpecReader {
	return &jsonSpecs{dec: json.NewDecoder(r)}
}

func (j *jsonSpecs) Next() ([]byte, bool, error) {
	if !j.inArray {
		if err := j.enterArray(); err != nil {
			return nil, false, err
		}
	}
	if !j.dec.More() {
		return nil, false, nil
	}
	// Decoding null leaves a string as it was, so clear the last spec:
	// a null entry is the empty, full-domain spec.
	j.spec = ""
	if err := j.dec.Decode(&j.spec); err != nil {
		return nil, false, invalidJSON(err)
	}
	j.n++
	j.buf = append(j.buf[:0], j.spec...)
	return j.buf, true, nil
}

func (j *jsonSpecs) Pos() string { return fmt.Sprintf("query %d", j.n) }

// enterArray consumes tokens up to the opening '[' of the spec array.
func (j *jsonSpecs) enterArray() error {
	tok, err := j.dec.Token()
	if err != nil {
		return invalidJSON(err)
	}
	switch d := tok.(type) {
	case json.Delim:
		switch d {
		case '[':
			j.inArray = true
			return nil
		case '{':
			for j.dec.More() {
				keyTok, err := j.dec.Token()
				if err != nil {
					return invalidJSON(err)
				}
				key, _ := keyTok.(string)
				if key != "queries" {
					// Skip the value of a foreign field.
					var skip json.RawMessage
					if err := j.dec.Decode(&skip); err != nil {
						return invalidJSON(err)
					}
					continue
				}
				open, err := j.dec.Token()
				if err != nil {
					return invalidJSON(err)
				}
				if open != json.Delim('[') {
					return fmt.Errorf("workload: \"queries\" must be an array of spec strings: %w", query.ErrInvalid)
				}
				j.inArray = true
				return nil
			}
			return fmt.Errorf("workload: JSON body has no \"queries\" array: %w", query.ErrInvalid)
		}
	}
	return fmt.Errorf("workload: JSON body must be an array or {\"queries\": [...]}: %w", query.ErrInvalid)
}

// Stream adapts a SpecReader into a query.Source by parsing each spec
// against schema straight into the slot ExecuteStream hands it
// (query.Parser.ParseInto) — the pipeline stage that lets wire-format
// decoding overlap batch execution, without an allocation or a Query
// copy per spec. Parse failures carry the reader's position and wrap
// query.ErrInvalid (a client error); reader failures pass through as
// the reader reported them.
func Stream(schema *dataset.Schema, sr SpecReader) query.Source {
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
func Queries(schema *dataset.Schema, sr SpecReader) func() (query.Query, bool, error) {
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

// invalidJSON tags a JSON decode failure as a client error.
func invalidJSON(err error) error {
	return fmt.Errorf("workload: bad JSON workload: %v: %w", err, query.ErrInvalid)
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
