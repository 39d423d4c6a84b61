package privelet_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl, err := dataset.MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := publishTable(t, tbl, "privelet+", privelet.Params{Epsilon: 1.0, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rel.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := privelet.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Accounting survives.
	if loaded.Epsilon() != rel.Epsilon() ||
		loaded.Sensitivity() != rel.Sensitivity() ||
		loaded.Lambda() != rel.Lambda() ||
		loaded.VarianceBound() != rel.VarianceBound() ||
		loaded.Mechanism() != rel.Mechanism() {
		t.Fatalf("accounting lost: %s vs %s", loaded, rel)
	}
	// The matrix survives bit-for-bit.
	if !loaded.Matrix().AlmostEqual(rel.Matrix(), 0) {
		t.Fatal("matrix lost precision")
	}
	// Queries answer identically, including hierarchy-node predicates
	// (the hierarchy must survive serialization).
	q1, err := rel.NewQuery().Range("Age", 0, 2).Leaf("HasDiabetes", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := loaded.NewQuery().Range("Age", 0, 2).Leaf("HasDiabetes", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := rel.Count(q1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Count(q2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("loaded release answers %v, original %v", b, a)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := privelet.Load(strings.NewReader("not a release")); err == nil {
		t.Fatal("Load of garbage should fail")
	}
	if _, err := privelet.Load(strings.NewReader("")); err == nil {
		t.Fatal("Load of empty input should fail")
	}
}
