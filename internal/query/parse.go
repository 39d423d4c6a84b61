// The query spec grammar. One implementation, over bytes: the server's
// q= parameter goes through Parse, and workload bodies go through a
// Parser fed each line's bytes as read, so a 40 000-line body is parsed
// without a string per line or a slice per query.

package query

import (
	"bytes"
	"strconv"

	"repro/internal/dataset"
)

// Parse normalizes one textual query spec into a Query against schema.
// The grammar — shared by the server's q= parameter, the batch-query
// wire format, and cmd/privelet workload files — is comma-separated
// predicates:
//
//	Age=30..49        ordinal interval (inclusive)
//	Occupation=@g3    nominal hierarchy node (roll-up)
//	Gender=#1         nominal single leaf by position
//	Occupation=#3..5  leaf-position interval (the §V-A normalized form)
//
// An empty string or "*" is the full-domain query. Each attribute takes
// at most one predicate: predicates are conjunctive (§II-A), and one
// interval per attribute cannot hold two. Every failure — malformed
// predicate, unknown or repeated attribute, inverted or out-of-domain
// interval, wrong-kind predicate (e.g. a lo..hi range on a nominal
// attribute) — wraps ErrInvalid, so callers can map parse failures to
// client errors with errors.Is.
func Parse(schema *dataset.Schema, raw string) (Query, error) {
	return NewParser(schema).Parse([]byte(raw))
}

// Parser parses specs in Parse's grammar against one schema.
//
// The queries it returns take their bounds from slabs the parser owns:
// each query gets its own cap-limited window of a slab, and a slab is
// never reused, so a query stays valid whatever the parser parses next.
// Slabs double from one query's worth up to DefaultStreamChunk queries,
// so a one-off Parse allocates one query's bounds, and a streamed
// workload a few slabs in all rather than several allocations per
// query; the price is that a kept query keeps its whole slab reachable.
// A Parser is not safe for concurrent use.
type Parser struct {
	schema *dataset.Schema
	domain float64
	// bounds and flags are the unused tails of the current slabs: lo
	// and hi per attribute, and constrained per attribute, per query.
	bounds []int
	flags  []bool
	// next is the query count of the next slab.
	next int
}

// NewParser returns a parser for specs against schema.
func NewParser(schema *dataset.Schema) *Parser {
	return &Parser{schema: schema, domain: float64(schema.DomainSize()), next: 1}
}

// Parse parses one spec. It reads spec only during the call, so the
// caller may reuse its bytes afterwards.
func (p *Parser) Parse(spec []byte) (Query, error) {
	d := p.schema.NumAttrs()
	if len(p.flags) < d {
		p.bounds = make([]int, 2*d*p.next)
		p.flags = make([]bool, d*p.next)
		p.next = min(2*p.next, DefaultStreamChunk)
	}
	q := Query{
		lo:          p.bounds[:d:d],
		hi:          p.bounds[d : 2*d : 2*d],
		constrained: p.flags[:d:d],
		domain:      p.domain,
	}
	for i := 0; i < d; i++ {
		q.lo[i], q.hi[i], q.constrained[i] = 0, p.schema.Attr(i).Size-1, false
	}
	spec = bytes.TrimSpace(spec)
	if string(spec) != "*" {
		for len(spec) > 0 {
			var clause []byte
			clause, spec, _ = bytes.Cut(spec, []byte(","))
			clause = bytes.TrimSpace(clause)
			if len(clause) == 0 {
				continue
			}
			if err := p.predicate(q, clause); err != nil {
				return Query{}, err
			}
		}
	}
	// Only a query handed out claims its window; a failed parse leaves
	// it to the next one.
	p.bounds, p.flags = p.bounds[2*d:], p.flags[d:]
	return q, nil
}

// predicate applies one non-empty clause to q. Error paths copy clause
// into a string so that the spec's bytes never escape.
func (p *Parser) predicate(q Query, clause []byte) error {
	name, val, ok := bytes.Cut(clause, []byte("="))
	if !ok {
		return invalidf("query: predicate %q: want Attr=spec", string(clause))
	}
	name, val = bytes.TrimSpace(name), bytes.TrimSpace(val)
	i := -1
	for j := 0; j < p.schema.NumAttrs(); j++ {
		if string(name) == p.schema.Attr(j).Name {
			i = j
			break
		}
	}
	if i < 0 {
		return invalidf("query: predicate %q: no attribute named %q", string(clause), string(name))
	}
	a := p.schema.Attr(i)
	if q.constrained[i] {
		return invalidf("query: predicate %q: attribute %q already constrained", string(clause), a.Name)
	}
	var (
		lo, hi int
		err    error
	)
	switch {
	case len(val) > 0 && val[0] == '@':
		if a.Kind != dataset.Nominal {
			return invalidf("query: predicate %q: @node on non-nominal attribute %q (use lo..hi)", string(clause), a.Name)
		}
		n := a.Hier.Find(string(val[1:]))
		if n == nil {
			return invalidf("query: attribute %q has no hierarchy node %q", a.Name, string(val[1:]))
		}
		lo, hi = a.Hier.LeafInterval(n)
	case len(val) > 0 && val[0] == '#':
		// Both '#' forms are nominal-only, symmetrically: ordinal
		// attributes use the plain lo..hi range.
		if a.Kind != dataset.Nominal {
			return invalidf("query: predicate %q: leaf on non-nominal attribute %q (use lo..hi)", string(clause), a.Name)
		}
		loB, hiB, isInterval := bytes.Cut(val[1:], []byte(".."))
		if !isInterval {
			if lo, err = strconv.Atoi(string(val[1:])); err != nil {
				return invalidf("query: predicate %q: bad leaf: %v", string(clause), err)
			}
			hi = lo
		} else if lo, hi, err = parseBounds(clause, loB, hiB); err != nil {
			return err
		}
	default:
		loB, hiB, isInterval := bytes.Cut(val, []byte(".."))
		if !isInterval {
			return invalidf("query: predicate %q: want lo..hi, @node, #leaf or #lo..hi", string(clause))
		}
		if a.Kind != dataset.Ordinal {
			return invalidf("query: predicate %q: lo..hi on non-ordinal attribute %q (use @node, #leaf or #lo..hi)", string(clause), a.Name)
		}
		if lo, hi, err = parseBounds(clause, loB, hiB); err != nil {
			return err
		}
	}
	if lo < 0 || hi >= a.Size || lo > hi {
		return invalidf("query: interval [%d,%d] invalid for attribute %q of size %d", lo, hi, a.Name, a.Size)
	}
	q.lo[i], q.hi[i], q.constrained[i] = lo, hi, true
	return nil
}

// parseBounds parses the two integers of a lo..hi interval spec.
func parseBounds(clause, loB, hiB []byte) (lo, hi int, err error) {
	if lo, err = strconv.Atoi(string(bytes.TrimSpace(loB))); err != nil {
		return 0, 0, invalidf("query: predicate %q: bad lo: %v", string(clause), err)
	}
	if hi, err = strconv.Atoi(string(bytes.TrimSpace(hiB))); err != nil {
		return 0, 0, invalidf("query: predicate %q: bad hi: %v", string(clause), err)
	}
	return lo, hi, nil
}
