// The query spec grammar. One implementation, over bytes: the server's
// q= parameter goes through Parse, and workload bodies go through a
// Parser fed each line's bytes as read, which parses each spec into a
// reused chunk slot (ParseInto), so a 40 000-line body is parsed
// without a string per line or an allocation per query. Each clause is
// read in one pass, left to right, and a clause spelled as Query.Spec
// spells it is applied from that pass alone.

package query

import (
	"fmt"
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
// ParseInto fills a slot the caller owns, in place, and allocates
// nothing: that is how a streamed workload fills Batch.ExecuteStream's
// chunk slots. Parse returns a query of its own, whose bounds come from
// slabs the parser owns: each query gets its own cap-limited window of a
// slab, and a slab is never reused, so a query stays valid whatever the
// parser parses next. Slabs double from one query's worth up to
// DefaultStreamChunk queries, so a one-off Parse allocates one query's
// bounds, and a workload kept whole a few slabs in all rather than
// several allocations per query; the price is that a kept query keeps
// its whole slab reachable. A Parser is not safe for concurrent use.
type Parser struct {
	schema *dataset.Schema
	domain float64
	// names, kinds and tops are the schema's Columns, so neither a
	// slot's reset nor a name lookup copies a dataset.Attribute.
	names []string
	kinds []dataset.Kind
	tops  []int
	// bounds and flags are the unused tails of the current slabs: lo
	// and hi per attribute, and constrained per attribute, per query.
	bounds []int
	flags  []bool
	// next is the query count of the next slab.
	next int
}

// NewParser returns a parser for specs against schema.
func NewParser(schema *dataset.Schema) *Parser {
	names, kinds, tops := schema.Columns()
	return &Parser{schema: schema, domain: float64(schema.DomainSize()), names: names, kinds: kinds, tops: tops, next: 1}
}

// Parse parses one spec into a query of its own: ParseInto on a fresh
// window of the parser's slabs. It reads spec only during the call, so
// the caller may reuse its bytes afterwards.
func (p *Parser) Parse(spec []byte) (Query, error) {
	d := len(p.tops)
	if len(p.flags) < d {
		p.bounds = make([]int, 2*d*p.next)
		p.flags = make([]bool, d*p.next)
		p.next = min(2*p.next, DefaultStreamChunk)
	}
	q := Query{
		lo:          p.bounds[:d:d],
		hi:          p.bounds[d : 2*d : 2*d],
		constrained: p.flags[:d:d],
	}
	if err := p.ParseInto(&q, spec); err != nil {
		return Query{}, err
	}
	// Only a query handed out claims its window; a failed parse leaves
	// it to the next one.
	p.bounds, p.flags = p.bounds[2*d:], p.flags[d:]
	return q, nil
}

// ParseInto parses one spec into the slot dst: it resets dst's bounds
// to the full domain and applies the spec's clauses to them in place,
// so it allocates nothing unless the spec is rejected. dst must hold
// one bound per attribute of the parser's schema, as a query from Parse
// or NewBuilder does, and a slot Batch.ExecuteStream hands its Source
// for an evaluator of that schema. On error dst holds no query until it
// is filled again. ParseInto reads spec only during the call.
func (p *Parser) ParseInto(dst *Query, spec []byte) error {
	d := len(p.tops)
	if len(dst.lo) != d || len(dst.hi) != d || len(dst.constrained) != d {
		return fmt.Errorf("query: a slot of %d bounds for a schema of %d attributes", len(dst.lo), d)
	}
	clear(dst.lo)
	copy(dst.hi, p.tops)
	clear(dst.constrained)
	dst.domain = p.domain
	if s, e := dataset.Trim(spec, 0, len(spec)); e-s != 1 || spec[s] != '*' {
		for start := 0; start < len(spec); {
			end, err := p.clause(dst, spec, start)
			if err != nil {
				return err
			}
			start = end + 1
		}
	}
	return nil
}

// clause applies the clause that starts at spec[start] to q, and
// returns the index of the ',' or the end of spec that ends it.
//
// It reads the clause once, left to right, finding its first '=', the
// first ".." after that, and its end. When the value is spelled as Spec
// spells it, lo..hi or #lo..hi with each bound a run dataset.Digits
// reads and nothing else, the bounds are read on the way, and a clause
// whose name has no edge space and whose interval is valid is applied
// as read. Every other clause, and every error, goes to predicate,
// which reads a spelled clause the same way. Every spec a workload
// sends is spelled; sending those through predicate too made a
// 40k-spec parse 20-40% slower on a 2-vCPU VM.
func (p *Parser) clause(q *Query, spec []byte, start int) (end int, err error) {
	end = start
	for end < len(spec) && spec[end] != '=' && spec[end] != ',' {
		end++
	}
	eq, dots := -1, -1
	var lo, hi int
	spelled := false
	if end < len(spec) && spec[end] == '=' {
		eq = end
		end++
		if end < len(spec) && spec[end] == '#' {
			end++
		}
		var loOK, hiOK bool
		lo, end, loOK = dataset.Digits(spec, end)
		if end+1 < len(spec) && spec[end] == '.' && spec[end+1] == '.' {
			dots = end
			hi, end, hiOK = dataset.Digits(spec, end+2)
			spelled = loOK && hiOK && (end == len(spec) || spec[end] == ',')
		}
		for ; end < len(spec) && spec[end] != ','; end++ {
			if dots < 0 && spec[end] == '.' && end+1 < len(spec) && spec[end+1] == '.' {
				dots = end
			}
		}
	}
	if spelled && eq > start && !dataset.MaySpace(spec[start]) && !dataset.MaySpace(spec[eq-1]) {
		i := p.attr(spec[start:eq])
		if i >= 0 && !q.constrained[i] && (spec[eq+1] == '#') == (p.kinds[i] == dataset.Nominal) && lo <= hi && hi <= p.tops[i] {
			q.lo[i], q.hi[i], q.constrained[i] = lo, hi, true
			return end, nil
		}
	}
	// Neither '=' nor '.' is a space, so both stay inside the trimmed
	// clause, and an absent one stays negative.
	if s, e := dataset.Trim(spec, start, end); s < e {
		err = p.predicate(q, spec[s:e], eq-s, dots-s)
	}
	return end, err
}

// attr returns the index of the attribute named name, or -1.
func (p *Parser) attr(name []byte) int {
	for j, n := range p.names {
		if string(name) == n {
			return j
		}
	}
	return -1
}

// predicate applies one trimmed, non-empty clause to q. eq indexes the
// clause's first '=' and dots the first ".." after it; either is
// negative if absent. Error paths copy clause into a string so that the
// spec's bytes never escape.
func (p *Parser) predicate(q *Query, clause []byte, eq, dots int) error {
	if eq < 0 {
		return invalidf("query: predicate %q: want Attr=spec", string(clause))
	}
	ns, ne := dataset.Trim(clause, 0, eq)
	name := clause[ns:ne]
	i := p.attr(name)
	if i < 0 {
		return invalidf("query: predicate %q: no attribute named %q", string(clause), string(name))
	}
	a := p.schema.Attr(i)
	if q.constrained[i] {
		return invalidf("query: predicate %q: attribute %q already constrained", string(clause), a.Name)
	}
	vs, ve := dataset.Trim(clause, eq+1, len(clause))
	val := clause[vs:ve]
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
		if dots < 0 {
			// A leaf is read untrimmed: "# 1" is not a leaf.
			if lo, err = strconv.Atoi(string(val[1:])); err != nil {
				return invalidf("query: predicate %q: bad leaf: %v", string(clause), err)
			}
			hi = lo
		} else if lo, hi, err = parseBounds(clause, vs+1, dots, ve); err != nil {
			return err
		}
	default:
		if dots < 0 {
			return invalidf("query: predicate %q: want lo..hi, @node, #leaf or #lo..hi", string(clause))
		}
		if a.Kind != dataset.Ordinal {
			return invalidf("query: predicate %q: lo..hi on non-ordinal attribute %q (use @node, #leaf or #lo..hi)", string(clause), a.Name)
		}
		if lo, hi, err = parseBounds(clause, vs, dots, ve); err != nil {
			return err
		}
	}
	if lo < 0 || hi >= a.Size || lo > hi {
		return invalidf("query: interval [%d,%d] invalid for attribute %q of size %d", lo, hi, a.Name, a.Size)
	}
	q.lo[i], q.hi[i], q.constrained[i] = lo, hi, true
	return nil
}

// parseBounds parses the two integers of a lo..hi interval spec: lo is
// clause[from:dots] and hi is clause[dots+2:to], each trimmed.
func parseBounds(clause []byte, from, dots, to int) (lo, hi int, err error) {
	if lo, err = dataset.Atoi(clause[from:dots]); err != nil {
		return 0, 0, invalidf("query: predicate %q: bad lo: %v", string(clause), err)
	}
	if hi, err = dataset.Atoi(clause[dots+2 : to]); err != nil {
		return 0, 0, invalidf("query: predicate %q: bad hi: %v", string(clause), err)
	}
	return lo, hi, nil
}
