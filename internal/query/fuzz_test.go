package query_test

// Native fuzz targets for the shared query grammar. The parser sits on
// every untrusted boundary at once — the server's q= parameter, the
// batch wire format, and cmd/privelet workload files — so it must never
// panic on hostile text, it must agree with the grammar's string-based
// reference (ReferenceParse, in reference_test.go) on which specs it
// accepts and on every accepted query's bounds, and every spec it
// accepts must canonicalize: Spec() is the AnswerCache key, so
// Parse(Spec(q)) has to reproduce the identical rendering no matter how
// the client spelled the query. A streamed workload parses each spec
// into a reused slot (ParseInto), so every input is also parsed into a
// slot a different spec filled last, once accepted and once rejected
// part-way, and must come out as a fresh Parse does. Seed corpus under
// testdata/fuzz/FuzzQueryParse; CI runs a short -fuzz smoke on top of
// the checked-in seeds.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/query"
)

// fuzzSchema is planSchema for testing.F callers: one ordinal and one
// nominal attribute, so every predicate form in the grammar is
// reachable.
func fuzzSchema(tb testing.TB) *dataset.Schema {
	tb.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return dataset.MustSchema(
		dataset.OrdinalAttr("Age", 10),
		dataset.NominalAttr("Occ", h),
	)
}

func FuzzQueryParse(f *testing.F) {
	for _, seed := range []string{
		// Every valid predicate form.
		"", "*", "Age=0..9", "Age=3..3", " Age = 0..4 , Occ=@g1 ",
		"Occ=@Any", "Occ=#1", "Occ=#0..5", "Occ=#3..5,Age=1..2",
		// Every documented rejection: inverted and out-of-domain
		// intervals, wrong-kind predicates, unknown names, bad shapes.
		"Age=9..0", "Age=0..100", "Occ=0..5", "Age=#1", "Occ=@nope",
		"Zip=1..2", "Age", "Age=", "=0..3", "Age=a..b", ",,,",
		"Age=0..3,Age=4..5", "Age=-1..2", "Occ=#-2..-1", "Occ=#1,Occ=@g1",
		// Spellings the reference accepts and the byte parser must too.
		"Age=+5..007", "Age=\u00a01..2\u2003", "Occ=# 1..2", "Occ=# 1",
		// The edges of the in-place digit reader: 18- and 19-digit
		// runs, overflow, stray dots, empty bounds, and bytes only
		// strconv.Atoi can judge.
		"Age=000000000000000001..000000000000000002",
		"Age=0000000000000000001..0000000000000000002",
		"Age=123456789012345678..1", "Age=1234567890123456789..1",
		"Age=9223372036854775808..1", "Age=1...3", "Age=1..2..3",
		"Occ=#1..", "Age=..3", "Age=0x1..2", "Age=1_0..2", "Age=1 ..2",
	} {
		f.Add(seed)
	}
	schema := fuzzSchema(f)
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := query.Parse(schema, raw)
		checkSlotReuse(t, schema, raw, q, err)
		ref, refErr := query.ReferenceParse(schema, raw)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) err = %v, reference err = %v", raw, err, refErr)
		}
		if err != nil {
			// The grammar's error contract: every parse failure is a
			// client error, mappable to 400 with errors.Is.
			if !errors.Is(err, query.ErrInvalid) {
				t.Fatalf("Parse(%q) error does not wrap ErrInvalid: %v", raw, err)
			}
			return
		}
		spec := q.Spec(schema)
		if !slices.Equal(q.Lo(), ref.Lo()) || !slices.Equal(q.Hi(), ref.Hi()) ||
			spec != ref.Spec(schema) || q.Coverage() != ref.Coverage() {
			t.Fatalf("Parse(%q) = %v..%v %q coverage %v, reference %v..%v %q coverage %v",
				raw, q.Lo(), q.Hi(), spec, q.Coverage(), ref.Lo(), ref.Hi(), ref.Spec(schema), ref.Coverage())
		}
		q2, err := query.Parse(schema, spec)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", spec, raw, err)
		}
		if got := q2.Spec(schema); got != spec {
			t.Fatalf("Spec is not a fixed point: %q → %q → %q", raw, spec, got)
		}
	})
}

// checkSlotReuse parses raw with ParseInto into a slot last filled by a
// different accepted spec, and into one last filled by a spec rejected
// after it had applied two clauses, and requires of each what Parse
// gave (q, err): the same error, or the same bounds, constrained flags,
// Spec and coverage.
func checkSlotReuse(t *testing.T, schema *dataset.Schema, raw string, q query.Query, err error) {
	t.Helper()
	p := query.NewParser(schema)
	for k, prev := range []string{"Age=2..5,Occ=#1..4", "Occ=#0..1,Age=3..4,Age=5..6"} {
		slot, perr := p.Parse([]byte("Age=1..8,Occ=@g1"))
		if perr != nil {
			t.Fatal(perr)
		}
		if perr := p.ParseInto(&slot, []byte(prev)); (perr == nil) != (k == 0) {
			t.Fatalf("ParseInto(%q): err = %v", prev, perr)
		}
		serr := p.ParseInto(&slot, []byte(raw))
		if (serr == nil) != (err == nil) || serr != nil && serr.Error() != err.Error() {
			t.Fatalf("ParseInto(%q) after %q: err = %v, Parse err = %v", raw, prev, serr, err)
		}
		if err != nil {
			continue
		}
		if !slices.Equal(slot.Lo(), q.Lo()) || !slices.Equal(slot.Hi(), q.Hi()) ||
			!slices.Equal(query.Constrained(slot), query.Constrained(q)) ||
			slot.Spec(schema) != q.Spec(schema) || slot.Coverage() != q.Coverage() {
			t.Fatalf("ParseInto(%q) after %q = %v..%v %v %q, Parse gave %v..%v %v %q", raw, prev,
				slot.Lo(), slot.Hi(), query.Constrained(slot), slot.Spec(schema),
				q.Lo(), q.Hi(), query.Constrained(q), q.Spec(schema))
		}
	}
}
