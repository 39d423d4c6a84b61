package query_test

// External test package: the round-trip property test drives the parser
// with internal/workload's §VII-A generator, which imports query — an
// in-package test would cycle.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

func planSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.MustSchema(
		dataset.OrdinalAttr("Age", 10),
		dataset.NominalAttr("Occ", h),
	)
}

// TestParseGrammar checks which specs parse and pins the message of
// each rejection, one or more specs per kind: the wording is part of
// the contract, since a 400 carries it to the client.
func TestParseGrammar(t *testing.T) {
	s := planSchema(t)
	cases := []struct {
		raw string
		err string // the whole message; empty if raw parses
	}{
		{"", ""},
		{"*", ""},
		{" * ", ""},
		{"Age=0..9", ""},
		{"Age = 2 .. 5 , Occ=@g1", ""},
		{"Occ=#3", ""},
		{"Occ=#3..5", ""},
		{",,", ""}, // empty clauses skipped
		{"Age", `query: predicate "Age": want Attr=spec: invalid query`},
		{" Age , Occ=#1", `query: predicate "Age": want Attr=spec: invalid query`},
		{"Ghost=1..2", `query: predicate "Ghost=1..2": no attribute named "Ghost": invalid query`},
		{"Ghost=#1..2", `query: predicate "Ghost=#1..2": no attribute named "Ghost": invalid query`},
		// Predicates are conjunctive (§II-A): a second predicate on one
		// attribute would silently replace the first, so it is rejected.
		{"Age=0..3,Age=4..5", `query: predicate "Age=4..5": attribute "Age" already constrained: invalid query`},
		{"Occ=#1,Occ=@g1", `query: predicate "Occ=@g1": attribute "Occ" already constrained: invalid query`},
		{"Age=a..b", `query: predicate "Age=a..b": bad lo: strconv.Atoi: parsing "a": invalid syntax: invalid query`},
		{"Age=1..x", `query: predicate "Age=1..x": bad hi: strconv.Atoi: parsing "x": invalid syntax: invalid query`},
		{"Age=9223372036854775808..1", `query: predicate "Age=9223372036854775808..1": bad lo: strconv.Atoi: parsing "9223372036854775808": value out of range: invalid query`},
		{"Age=1...3", `query: predicate "Age=1...3": bad hi: strconv.Atoi: parsing ".3": invalid syntax: invalid query`},
		{"Occ=#x", `query: predicate "Occ=#x": bad leaf: strconv.Atoi: parsing "x": invalid syntax: invalid query`},
		{"Occ=# 1", `query: predicate "Occ=# 1": bad leaf: strconv.Atoi: parsing " 1": invalid syntax: invalid query`},
		{"Age=@g1", `query: predicate "Age=@g1": @node on non-nominal attribute "Age" (use lo..hi): invalid query`},
		// Both '#' forms are nominal-only.
		{"Age=#1", `query: predicate "Age=#1": leaf on non-nominal attribute "Age" (use lo..hi): invalid query`},
		{"Age=#2..4", `query: predicate "Age=#2..4": leaf on non-nominal attribute "Age" (use lo..hi): invalid query`},
		{"Age=#1..x", `query: predicate "Age=#1..x": leaf on non-nominal attribute "Age" (use lo..hi): invalid query`},
		{"Occ=1..3", `query: predicate "Occ=1..3": lo..hi on non-ordinal attribute "Occ" (use @node, #leaf or #lo..hi): invalid query`},
		{"Age=5", `query: predicate "Age=5": want lo..hi, @node, #leaf or #lo..hi: invalid query`},
		{"Age=9..1", `query: interval [9,1] invalid for attribute "Age" of size 10: invalid query`},
		{"Age=0..10", `query: interval [0,10] invalid for attribute "Age" of size 10: invalid query`},
		{"Age=123456789012345678..1", `query: interval [123456789012345678,1] invalid for attribute "Age" of size 10: invalid query`},
		{"Occ=#5..3", `query: interval [5,3] invalid for attribute "Occ" of size 6: invalid query`},
		{"Occ=#0..9", `query: interval [0,9] invalid for attribute "Occ" of size 6: invalid query`},
		{"Occ=#-1", `query: interval [-1,-1] invalid for attribute "Occ" of size 6: invalid query`},
		{"Occ=@ghost", `query: attribute "Occ" has no hierarchy node "ghost": invalid query`},
	}
	for _, tc := range cases {
		_, err := query.Parse(s, tc.raw)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("Parse(%q) err=%v, want %q", tc.raw, err, tc.err)
		}
		if err != nil && !errors.Is(err, query.ErrInvalid) {
			t.Errorf("Parse(%q): error does not wrap ErrInvalid: %v", tc.raw, err)
		}
	}
	// A roll-up covers its node's leaves: g1 is the second group of
	// ThreeLevel(2, 3), leaves 3..5.
	q, err := query.Parse(s, "Age=2..5,Occ=@g1")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := q.Lo(), q.Hi()
	if lo[0] != 2 || hi[0] != 5 || lo[1] != 3 || hi[1] != 5 {
		t.Fatalf("parsed bounds %v..%v, want [2 3]..[5 5]", lo, hi)
	}
}

// TestSpecParseRoundTrip is the wire-format property: for random §VII-A
// workload queries, Parse(schema, q.Spec(schema)) reproduces q's
// normalized intervals exactly.
func TestSpecParseRoundTrip(t *testing.T) {
	s := planSchema(t)
	gen, err := workload.NewGenerator(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(200, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Include the full-domain query, whose spec is "*".
	free, err := query.NewBuilder(s).Build()
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, free)
	for _, q := range queries {
		spec := q.Spec(s)
		back, err := query.Parse(s, spec)
		if err != nil {
			t.Fatalf("Parse(Spec %q): %v", spec, err)
		}
		glo, ghi, blo, bhi := q.Lo(), q.Hi(), back.Lo(), back.Hi()
		for i := range glo {
			if glo[i] != blo[i] || ghi[i] != bhi[i] {
				t.Fatalf("spec %q: attr %d round-tripped to [%d,%d], want [%d,%d]",
					spec, i, blo[i], bhi[i], glo[i], ghi[i])
			}
		}
	}
}

// batchFixture builds an evaluator over a deterministic matrix plus a
// workload large enough to exercise several pool splits.
func batchFixture(t *testing.T, n int) (*query.Evaluator, []query.Query) {
	t.Helper()
	s := planSchema(t)
	m := matrix.MustNew(10, 6)
	data := m.Data()
	for i := range data {
		data[i] = float64(i%23) + 0.125*float64(i%7)
	}
	ev := query.NewEvaluator(m)
	gen, err := workload.NewGenerator(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(n, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return ev, queries
}

// TestBatchParallelismInvariance is the executor's central property:
// answers at workers 1, 4 and GOMAXPROCS are float64 == to a serial
// Count loop, in order.
func TestBatchParallelismInvariance(t *testing.T) {
	ev, queries := batchFixture(t, 3000)
	want := make([]float64, len(queries))
	for i, q := range queries {
		a, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0, 64} {
		got, err := query.Batch{Eval: ev, Workers: workers}.Execute(context.Background(), queries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestBatchEmptyAndNil(t *testing.T) {
	ev, _ := batchFixture(t, 0)
	got, err := query.Batch{Eval: ev, Workers: 4}.Execute(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: answers=%v err=%v", got, err)
	}
	if _, err := (query.Batch{}).Execute(context.Background(), nil); err == nil {
		t.Fatal("nil evaluator: expected error")
	}
}

func TestBatchPreCancelled(t *testing.T) {
	ev, queries := batchFixture(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := (query.Batch{Eval: ev, Workers: workers}).Execute(ctx, queries); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestBatchErrorDeterminism: a query that does not fit the evaluator's
// matrix aborts the batch with the lowest-index failure at any worker
// count — error reporting must not depend on the pool split.
func TestBatchErrorDeterminism(t *testing.T) {
	ev, queries := batchFixture(t, 2000)
	// Queries built against a wider schema than the evaluator's matrix:
	// Count fails on them with a (non-ErrInvalid) engine error.
	wide := dataset.MustSchema(dataset.OrdinalAttr("Age", 50), dataset.OrdinalAttr("X", 50))
	bad, err := query.NewBuilder(wide).Range("Age", 0, 49).Build()
	if err != nil {
		t.Fatal(err)
	}
	queries[777] = bad
	queries[1500] = bad
	var want error
	for _, workers := range []int{1, 3, 4, runtime.GOMAXPROCS(0), 16} {
		_, err := query.Batch{Eval: ev, Workers: workers}.Execute(context.Background(), queries)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if errors.Is(err, query.ErrInvalid) {
			t.Fatalf("workers=%d: engine failure mislabeled as client error: %v", workers, err)
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Fatalf("workers=%d: error %q, want %q (lowest-index rule)", workers, err, want)
		}
	}
}
