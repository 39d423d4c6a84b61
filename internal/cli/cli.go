// Package cli holds the schema-clause and CSV parsing shared by the
// command-line tools and the HTTP server, split out of cmd/privelet so
// it can be tested directly. Schema clauses (Name:ordinal:SIZE,
// Name:nominal:flat:N, Name:nominal:3level:GxL) are the textual form of
// the paper's attribute model (§II-A: ordinal and hierarchy-bearing
// nominal attributes).
package cli

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// ParseSchema parses a comma-separated clause list into a schema. Clause
// grammar (one per attribute, in column order):
//
//	Name:ordinal:SIZE
//	Name:nominal:flat:LEAVES
//	Name:nominal:3level:GROUPSxLEAVES
//
// Space around a clause is ignored. Every number must read whole as
// strconv.Atoi reads it, with no space or trailing input of its own,
// and a clause with more parts than its kind takes is rejected.
func ParseSchema(spec string) (*dataset.Schema, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cli: empty schema spec")
	}
	var attrs []dataset.Attribute
	for _, clause := range strings.Split(spec, ",") {
		attr, err := parseClause(strings.TrimSpace(clause))
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, attr)
	}
	return dataset.NewSchema(attrs...)
}

func parseClause(clause string) (dataset.Attribute, error) {
	parts := strings.Split(clause, ":")
	if len(parts) < 3 {
		return dataset.Attribute{}, fmt.Errorf("cli: clause %q: want name:kind:shape", clause)
	}
	name, kind := parts[0], parts[1]
	if name == "" {
		return dataset.Attribute{}, fmt.Errorf("cli: clause %q: empty attribute name", clause)
	}
	switch kind {
	case "ordinal":
		if len(parts) != 3 {
			return dataset.Attribute{}, fmt.Errorf("cli: clause %q: want name:ordinal:SIZE", clause)
		}
		size, err := strconv.Atoi(parts[2])
		if err != nil {
			return dataset.Attribute{}, fmt.Errorf("cli: clause %q: bad size: %w", clause, err)
		}
		return dataset.OrdinalAttr(name, size), nil
	case "nominal":
		if len(parts) != 4 {
			return dataset.Attribute{}, fmt.Errorf("cli: clause %q: want name:nominal:flat:N or name:nominal:3level:GxL", clause)
		}
		switch parts[2] {
		case "flat":
			n, err := strconv.Atoi(parts[3])
			if err != nil {
				return dataset.Attribute{}, fmt.Errorf("cli: clause %q: bad leaf count: %w", clause, err)
			}
			h, err := hierarchy.Flat(n)
			if err != nil {
				return dataset.Attribute{}, fmt.Errorf("cli: clause %q: %w", clause, err)
			}
			return dataset.NominalAttr(name, h), nil
		case "3level":
			gs, ls, _ := strings.Cut(parts[3], "x")
			g, gerr := strconv.Atoi(gs)
			l, lerr := strconv.Atoi(ls)
			if err := cmp.Or(gerr, lerr); err != nil {
				return dataset.Attribute{}, fmt.Errorf("cli: clause %q: want GROUPSxLEAVES: %w", clause, err)
			}
			h, err := hierarchy.ThreeLevel(g, l)
			if err != nil {
				return dataset.Attribute{}, fmt.Errorf("cli: clause %q: %w", clause, err)
			}
			return dataset.NominalAttr(name, h), nil
		default:
			return dataset.Attribute{}, fmt.Errorf("cli: clause %q: unknown hierarchy shape %q", clause, parts[2])
		}
	default:
		return dataset.Attribute{}, fmt.Errorf("cli: clause %q: unknown kind %q", clause, kind)
	}
}

// ReadRows streams a headerless integer CSV whose columns match the
// schema's attributes in order, handing each parsed row to sink as it is
// read. Blank lines are skipped (but counted in error line numbers);
// values are 0-based domain indices, read as strconv.Atoi reads each
// field with the space around it and the line trimmed; lines are limited
// to 1 MiB. A line with the wrong number of fields is reported as such
// even when one of its fields is also malformed. The row slice passed to
// sink is reused between calls — sinks that retain rows must copy (the
// intended sinks, dataset.Table.Append and privelet's Publisher.Add,
// both consume the values immediately).
//
// This is the streaming ingest chokepoint: with a frequency-folding sink
// the whole pipe from CSV bytes to matrix counts holds one row in memory
// at a time, so n ≫ RAM tables publish fine. Each line is read once, in
// place: dataset.Digits reads a field's digits where they lie, and only
// a field it does not read whole, up to its ',' or the end of the line,
// goes through dataset.Atoi. No row allocates.
func ReadRows(schema *dataset.Schema, r io.Reader, sink func(vals ...int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	line := 0
	vals := make([]int, schema.NumAttrs())
	for sc.Scan() {
		line++
		text := sc.Bytes()
		s, e := dataset.Trim(text, 0, len(text))
		if s == e {
			continue
		}
		text = text[s:e]
		for i := range vals {
			v, end, ok := dataset.Digits(text, 0)
			var err error
			if !ok || end < len(text) && text[end] != ',' {
				if end = bytes.IndexByte(text, ','); end < 0 {
					end = len(text)
				}
				v, err = dataset.Atoi(text[:end])
			}
			// The last field must end the line, and no other may.
			if last := i == len(vals)-1; err != nil || last != (end == len(text)) {
				if n := i + 1 + bytes.Count(text[end:], comma); n != len(vals) {
					return fmt.Errorf("cli: line %d: %d fields, want %d", line, n, len(vals))
				}
				return fmt.Errorf("cli: line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
			text = text[min(end+1, len(text)):]
		}
		if err := sink(vals...); err != nil {
			return fmt.Errorf("cli: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

var comma = []byte{','}

// WriteTableCSV emits the table as a headerless integer CSV, the inverse
// of ReadRows.
func WriteTableCSV(w io.Writer, t *dataset.Table) error {
	bw := bufio.NewWriter(w)
	d := t.Schema().NumAttrs()
	row := make([]int, d)
	for i := 0; i < t.Len(); i++ {
		t.Row(i, row)
		for j, v := range row {
			if j > 0 {
				if _, err := bw.WriteString(","); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprint(bw, v); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SplitNonEmpty splits a comma-separated flag value, dropping empties.
func SplitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
