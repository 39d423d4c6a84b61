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

func TestParseGrammar(t *testing.T) {
	s := planSchema(t)
	cases := []struct {
		raw     string
		wantErr bool
	}{
		{"", false},
		{"*", false},
		{" * ", false},
		{"Age=0..9", false},
		{"Age = 2 .. 5 , Occ=@g1", false},
		{"Occ=#3", false},
		{"Occ=#3..5", false},
		{",,", false},       // empty clauses skipped
		{"Age=#2..4", true}, // both '#' forms are nominal-only
		{"Age", true},
		{"Age=5", true},
		{"Age=a..b", true},
		{"Age=1..x", true},
		{"Age=#1..x", true},
		{"Age=9..1", true}, // inverted
		{"Occ=#x", true},
		{"Occ=#5..3", true}, // inverted leaf interval
		{"Occ=#0..9", true}, // out of domain
		{"Occ=@ghost", true},
		{"Occ=1..3", true}, // ordinal range on a nominal attribute
		{"Ghost=1..2", true},
		{"Ghost=#1..2", true},
		// Predicates are conjunctive (§II-A): a second predicate on one
		// attribute would silently replace the first, so it is rejected.
		{"Age=0..3,Age=4..5", true},
		{"Occ=#1,Occ=@g1", true},
	}
	for _, tc := range cases {
		_, err := query.Parse(s, tc.raw)
		if (err != nil) != tc.wantErr {
			t.Errorf("Parse(%q) err=%v, wantErr=%v", tc.raw, err, tc.wantErr)
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
