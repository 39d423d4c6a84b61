package query

// The spec grammar's reference implementation: Parse as it was written
// over strings and the Builder before the byte parser replaced it, with
// the same repeated-attribute rule added. FuzzQueryParse holds Parse to
// it: both must accept the same specs and agree on every accepted one.

import (
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// ReferenceParse is the reference for Parse (exported for the external
// test package).
func ReferenceParse(schema *dataset.Schema, raw string) (Query, error) {
	b := NewBuilder(schema)
	raw = strings.TrimSpace(raw)
	if raw == "" || raw == "*" {
		return b.Build()
	}
	for _, clause := range strings.Split(raw, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Query{}, invalidf("query: predicate %q: want Attr=spec", clause)
		}
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		if i, err := schema.Index(name); err == nil && b.q.constrained[i] {
			return Query{}, invalidf("query: predicate %q: attribute %q already constrained", clause, name)
		}
		switch {
		case strings.HasPrefix(val, "@"):
			b.Node(name, val[1:])
		case strings.HasPrefix(val, "#"):
			loStr, hiStr, isInterval := strings.Cut(val[1:], "..")
			if !isInterval {
				leaf, err := strconv.Atoi(val[1:])
				if err != nil {
					return Query{}, invalidf("query: predicate %q: bad leaf: %v", clause, err)
				}
				b.Leaf(name, leaf)
				continue
			}
			lo, hi, err := referenceBounds(clause, loStr, hiStr)
			if err != nil {
				return Query{}, err
			}
			i, err := schema.Index(name)
			if err != nil {
				return Query{}, invalidf("query: %v", err)
			}
			if schema.Attr(i).Kind != dataset.Nominal {
				return Query{}, invalidf("query: predicate %q: leaf interval on non-nominal attribute %q (use lo..hi)", clause, name)
			}
			b.Interval(i, lo, hi)
		default:
			loStr, hiStr, isInterval := strings.Cut(val, "..")
			if !isInterval {
				return Query{}, invalidf("query: predicate %q: want lo..hi, @node, #leaf or #lo..hi", clause)
			}
			lo, hi, err := referenceBounds(clause, loStr, hiStr)
			if err != nil {
				return Query{}, err
			}
			b.Range(name, lo, hi)
		}
	}
	return b.Build()
}

// referenceBounds parses the two integers of a lo..hi interval spec.
func referenceBounds(clause, loStr, hiStr string) (lo, hi int, err error) {
	lo, err = strconv.Atoi(strings.TrimSpace(loStr))
	if err != nil {
		return 0, 0, invalidf("query: predicate %q: bad lo: %v", clause, err)
	}
	hi, err = strconv.Atoi(strings.TrimSpace(hiStr))
	if err != nil {
		return 0, 0, invalidf("query: predicate %q: bad hi: %v", clause, err)
	}
	return lo, hi, nil
}
