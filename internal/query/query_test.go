package query

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

func censusMini(t testing.TB) (*dataset.Schema, *dataset.Table) {
	t.Helper()
	tbl, err := dataset.MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Schema(), tbl
}

func TestBuilderDefaultsToFullDomain(t *testing.T) {
	s, _ := censusMini(t)
	q, err := NewBuilder(s).Build()
	if err != nil {
		t.Fatal(err)
	}
	if spec := q.Spec(s); spec != "*" {
		t.Errorf("Spec = %q, want \"*\" (no predicate)", spec)
	}
	if q.Coverage() != 1 {
		t.Errorf("Coverage = %v, want 1", q.Coverage())
	}
	lo, hi := q.Lo(), q.Hi()
	if lo[0] != 0 || hi[0] != 4 || lo[1] != 0 || hi[1] != 1 {
		t.Errorf("bounds = %v..%v", lo, hi)
	}
}

func TestBuilderRange(t *testing.T) {
	s, tbl := censusMini(t)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's intro query: diabetes patients with age under 50 —
	// age groups 0..2, diabetes leaf 0 (Yes).
	q, err := NewBuilder(s).Range("Age", 0, 2).Leaf("HasDiabetes", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Eval(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("diabetes under 50 = %v, want 1", got)
	}
	if spec := q.Spec(s); spec != "Age=0..2,HasDiabetes=#0..0" {
		t.Errorf("Spec = %q, want both predicates", spec)
	}
}

func TestBuilderNode(t *testing.T) {
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.MustSchema(
		dataset.OrdinalAttr("Age", 4),
		dataset.NominalAttr("Occ", h),
	)
	q, err := NewBuilder(s).Node("Occ", "g1").Build()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := q.Lo(), q.Hi()
	if lo[1] != 3 || hi[1] != 5 {
		t.Errorf("g1 interval = [%d,%d], want [3,5]", lo[1], hi[1])
	}
	// Coverage: full age (4/4) × half occupation (3/6) = 1/2.
	if math.Abs(q.Coverage()-0.5) > 1e-12 {
		t.Errorf("Coverage = %v, want 0.5", q.Coverage())
	}
}

func TestBuilderErrors(t *testing.T) {
	s, _ := censusMini(t)
	cases := []*Builder{
		NewBuilder(s).Range("Nope", 0, 1),
		NewBuilder(s).Range("HasDiabetes", 0, 1), // nominal via Range
		NewBuilder(s).Range("Age", 2, 1),
		NewBuilder(s).Range("Age", -1, 1),
		NewBuilder(s).Range("Age", 0, 5),
		NewBuilder(s).Node("Age", "Any"), // ordinal via Node
		NewBuilder(s).Node("HasDiabetes", "ghost"),
		NewBuilder(s).Node("Nope", "x"),
		NewBuilder(s).Leaf("Age", 0), // ordinal via Leaf
		NewBuilder(s).Leaf("HasDiabetes", 7),
		NewBuilder(s).Leaf("Nope", 0),
		NewBuilder(s).Interval(5, 0, 0),
		NewBuilder(s).Interval(0, 3, 9),
	}
	for i, b := range cases {
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Error sticks across later valid calls.
	if _, err := NewBuilder(s).Range("Nope", 0, 1).Range("Age", 0, 1).Build(); err == nil {
		t.Error("builder error should be sticky")
	}
}

func TestIntervalLowLevel(t *testing.T) {
	s, _ := censusMini(t)
	q, err := NewBuilder(s).Interval(0, 1, 3).Interval(1, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := q.Lo(), q.Hi()
	if lo[0] != 1 || hi[0] != 3 || lo[1] != 1 || hi[1] != 1 {
		t.Errorf("bounds = %v..%v", lo, hi)
	}
}

func TestEvaluatorMatchesEval(t *testing.T) {
	s, tbl := censusMini(t)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(m)
	if ev.Total() != 8 {
		t.Fatalf("Total = %v, want 8", ev.Total())
	}
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		b := NewBuilder(s)
		for i := 0; i < s.NumAttrs(); i++ {
			if r.Float64() < 0.7 {
				size := s.Attr(i).Size
				lo := r.Intn(size)
				hi := lo + r.Intn(size-lo)
				b.Interval(i, lo, hi)
			}
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Eval(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Count = %v, want %v", got, want)
		}
	}
}

func TestCoverageFormula(t *testing.T) {
	s, _ := censusMini(t) // dims 5 × 2, m = 10
	q, err := NewBuilder(s).Range("Age", 1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	// 2 age buckets × 2 diabetes values = 4 of 10 entries.
	if math.Abs(q.Coverage()-0.4) > 1e-12 {
		t.Errorf("Coverage = %v, want 0.4", q.Coverage())
	}
}

// Property: evaluator answers match naive evaluation over random small
// schemas, matrices, and queries.
func TestEvaluatorQuick(t *testing.T) {
	f := func(seed uint64, d1Raw, d2Raw uint8) bool {
		r := rng.New(seed)
		d1 := int(d1Raw%7) + 1
		d2 := int(d2Raw%7) + 1
		s := dataset.MustSchema(
			dataset.OrdinalAttr("A", d1),
			dataset.OrdinalAttr("B", d2),
		)
		tbl := dataset.NewTable(s)
		n := r.Intn(50)
		for i := 0; i < n; i++ {
			if err := tbl.Append(r.Intn(d1), r.Intn(d2)); err != nil {
				return false
			}
		}
		m, err := tbl.FrequencyMatrix()
		if err != nil {
			return false
		}
		ev := NewEvaluator(m)
		lo1 := r.Intn(d1)
		hi1 := lo1 + r.Intn(d1-lo1)
		lo2 := r.Intn(d2)
		hi2 := lo2 + r.Intn(d2-lo2)
		q, err := NewBuilder(s).Interval(0, lo1, hi1).Interval(1, lo2, hi2).Build()
		if err != nil {
			return false
		}
		want, err1 := q.Eval(m)
		got, err2 := ev.Count(q)
		return err1 == nil && err2 == nil && math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
