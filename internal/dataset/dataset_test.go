package dataset

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/transform"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(OrdinalAttr("Age", 4), NominalAttr("Occ", h))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKindString(t *testing.T) {
	if Ordinal.String() != "ordinal" || Nominal.String() != "nominal" {
		t.Error("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should render")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	h, _ := hierarchy.Flat(3)
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema(OrdinalAttr("", 4)); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema(OrdinalAttr("A", 0)); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewSchema(OrdinalAttr("A", 4), OrdinalAttr("A", 2)); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := NewSchema(Attribute{Name: "N", Kind: Nominal}); err == nil {
		t.Error("nominal without hierarchy should fail")
	}
	if _, err := NewSchema(Attribute{Name: "N", Kind: Nominal, Hier: h, Size: 5}); err == nil {
		t.Error("nominal size mismatch should fail")
	}
	if _, err := NewSchema(Attribute{Name: "X", Kind: Kind(12), Size: 3}); err == nil {
		t.Error("unknown kind should fail")
	}
	// Nominal size derived from hierarchy.
	s, err := NewSchema(NominalAttr("N", h))
	if err != nil {
		t.Fatal(err)
	}
	if s.Attr(0).Size != 3 {
		t.Errorf("derived nominal size = %d, want 3", s.Attr(0).Size)
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d", s.NumAttrs())
	}
	if i, err := s.Index("Occ"); err != nil || i != 1 {
		t.Errorf("Index(Occ) = %d, %v", i, err)
	}
	if _, err := s.Index("Nope"); err == nil {
		t.Error("Index of missing attribute should fail")
	}
	dims := s.Dims()
	if dims[0] != 4 || dims[1] != 6 {
		t.Errorf("Dims = %v, want [4 6]", dims)
	}
	if s.DomainSize() != 24 {
		t.Errorf("DomainSize = %d, want 24", s.DomainSize())
	}
	if s.Attr(0).Hier != nil {
		t.Error("ordinal attribute should have no hierarchy")
	}
	if h := s.Attr(1).Hier.Height(); h != 3 {
		t.Errorf("nominal height = %d, want 3", h)
	}
}

func TestSchemaSpecs(t *testing.T) {
	s := testSchema(t)
	specs := s.Specs()
	if specs[0].Kind != transform.KindOrdinal || specs[0].Size != 4 {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Kind != transform.KindNominal || specs[1].Hier == nil {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	// Specs must be usable by transform.New.
	if _, err := transform.New(specs...); err != nil {
		t.Errorf("transform.New(schema specs): %v", err)
	}
}

func TestSubSchema(t *testing.T) {
	s := testSchema(t)
	sub, idx, err := s.SubSchema([]string{"Occ"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumAttrs() != 1 || sub.Attr(0).Name != "Occ" {
		t.Errorf("SubSchema wrong: %+v", sub.Attr(0))
	}
	if len(idx) != 1 || idx[0] != 1 {
		t.Errorf("SubSchema idx = %v, want [1]", idx)
	}
	if _, _, err := s.SubSchema([]string{"Nope"}); err == nil {
		t.Error("SubSchema with missing name should fail")
	}
}

func TestTableAppendAndRow(t *testing.T) {
	s := testSchema(t)
	tbl := NewTable(s)
	if tbl.Len() != 0 {
		t.Error("new table not empty")
	}
	if err := tbl.Append(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(3, 5); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}
	row := tbl.Row(1, nil)
	if row[0] != 3 || row[1] != 5 {
		t.Errorf("Row(1) = %v, want [3 5]", row)
	}
	// Reuse destination.
	dst := make([]int, 2)
	if got := tbl.Row(0, dst); got[0] != 1 || got[1] != 4 {
		t.Errorf("Row(0) = %v", got)
	}
	if err := tbl.Append(1); err == nil {
		t.Error("short tuple should fail")
	}
	if err := tbl.Append(4, 0); err == nil {
		t.Error("out-of-domain ordinal should fail")
	}
	if err := tbl.Append(0, 6); err == nil {
		t.Error("out-of-domain nominal should fail")
	}
	if err := tbl.Append(-1, 0); err == nil {
		t.Error("negative value should fail")
	}
	if tbl.Schema() != s {
		t.Error("Schema accessor broken")
	}
}

func TestFrequencyMatrixMedicalExample(t *testing.T) {
	// Table I → Table II: the frequency matrix of the paper's worked
	// example. Columns: leaf 0 = Yes, leaf 1 = No.
	tbl, err := MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 8 {
		t.Fatalf("medical example has %d rows, want 8", tbl.Len())
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]float64{
		{0, 2}, // <30
		{0, 1}, // 30-39
		{1, 2}, // 40-49
		{0, 1}, // 50-59
		{1, 0}, // >=60
	}
	for age, row := range want {
		for col, wv := range row {
			if got := m.At(age, col); got != wv {
				t.Errorf("M[%d][%d] = %v, want %v", age, col, got, wv)
			}
		}
	}
	if m.Total() != 8 {
		t.Errorf("matrix total = %v, want 8", m.Total())
	}
}

func TestFrequencyMatrixTotalEqualsN(t *testing.T) {
	spec := BrazilSpec(ScaleSmall)
	tbl, err := GenerateCensus(spec, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 5000 {
		t.Errorf("frequency matrix total = %v, want 5000", m.Total())
	}
	// Every entry non-negative.
	for _, v := range m.Data() {
		if v < 0 {
			t.Fatal("negative count in frequency matrix")
		}
	}
}

func TestGenerateCensusDeterminism(t *testing.T) {
	spec := USSpec(ScaleSmall)
	a, err := GenerateCensus(spec, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCensus(spec, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := make([]int, 4), make([]int, 4)
	for i := 0; i < 200; i++ {
		a.Row(i, ra)
		b.Row(i, rb)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("row %d differs between same-seed generations", i)
			}
		}
	}
	c, err := GenerateCensus(spec, 200, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := 0; i < 200 && !diff; i++ {
		a.Row(i, ra)
		c.Row(i, rb)
		for j := range ra {
			if ra[j] != rb[j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateCensusErrors(t *testing.T) {
	if _, err := GenerateCensus(BrazilSpec(ScaleSmall), -1, 0); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := GenerateCensus(CensusSpec{}, 10, 0); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestCensusSpecsMatchTableIII(t *testing.T) {
	// Full scale must match the paper's Table III exactly.
	br := BrazilSpec(ScaleFull)
	if br.AgeSize != 101 || br.OccSize() != 512 || br.IncomeSize != 1001 {
		t.Errorf("Brazil full = %+v (occ %d)", br, br.OccSize())
	}
	us := USSpec(ScaleFull)
	if us.AgeSize != 96 || us.OccSize() != 511 || us.IncomeSize != 1020 {
		t.Errorf("US full = %+v (occ %d)", us, us.OccSize())
	}
	// All scales build valid schemas with the right hierarchy heights.
	for _, scale := range []Scale{ScaleSmall, ScaleMedium, ScaleFull} {
		for _, spec := range []CensusSpec{BrazilSpec(scale), USSpec(scale)} {
			s, err := spec.Schema()
			if err != nil {
				t.Fatalf("%s %v: %v", spec.Name, scale, err)
			}
			if got := s.Attr(1).Hier.Height(); got != 2 {
				t.Errorf("%s %v: gender height = %d, want 2", spec.Name, scale, got)
			}
			if got := s.Attr(2).Hier.Height(); got != 3 {
				t.Errorf("%s %v: occupation height = %d, want 3", spec.Name, scale, got)
			}
		}
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleMedium.String() != "medium" || ScaleFull.String() != "full" {
		t.Error("Scale.String broken")
	}
	if Scale(9).String() == "" {
		t.Error("unknown Scale should render")
	}
}

func TestUniformSpecForM(t *testing.T) {
	spec, err := UniformSpecForM(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	// m^(1/4) = 16, perfect square ⇒ AttrSize 16.
	if spec.AttrSize != 16 {
		t.Errorf("AttrSize = %d, want 16", spec.AttrSize)
	}
	s, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if s.DomainSize() != 1<<16 {
		t.Errorf("DomainSize = %d, want %d", s.DomainSize(), 1<<16)
	}
	// §VII-B: nominal hierarchies have √|A| level-2 nodes.
	occ := s.Attr(2)
	if occ.Hier.Root().Fanout() != 4 {
		t.Errorf("level-2 node count = %d, want 4", occ.Hier.Root().Fanout())
	}
	if _, err := UniformSpecForM(4); err == nil {
		t.Error("tiny m should fail")
	}
	if _, err := (UniformSpec{}).Schema(); err == nil {
		t.Error("zero AttrSize should fail")
	}
	// Non-square sizes spread leaves over round(√|A|) uneven groups but
	// keep every leaf at depth 3.
	s5, err := (UniformSpec{AttrSize: 5}).Schema()
	if err != nil {
		t.Fatal(err)
	}
	h5 := s5.Attr(2).Hier
	if h5.Height() != 3 || h5.LeafCount() != 5 {
		t.Errorf("uneven hierarchy: height=%d leaves=%d", h5.Height(), h5.LeafCount())
	}
	if h5.Root().Fanout() != 2 {
		t.Errorf("uneven hierarchy groups = %d, want round(√5) = 2", h5.Root().Fanout())
	}
	// Distinct m values no longer collapse: 2^12 → 8, 2^16 → 16.
	s12, err := UniformSpecForM(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if s12.AttrSize != 8 {
		t.Errorf("UniformSpecForM(2^12) AttrSize = %d, want 8", s12.AttrSize)
	}
}

func TestGenerateUniform(t *testing.T) {
	spec := UniformSpec{AttrSize: 9}
	tbl, err := GenerateUniform(spec, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1000 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	// Roughly uniform marginals on the first attribute.
	counts := make([]int, 9)
	row := make([]int, 4)
	for i := 0; i < 1000; i++ {
		tbl.Row(i, row)
		counts[row[0]]++
	}
	for v, c := range counts {
		if c < 60 || c > 170 {
			t.Errorf("value %d count %d suspiciously far from uniform", v, c)
		}
	}
	if _, err := GenerateUniform(spec, -5, 0); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := GenerateUniform(UniformSpec{AttrSize: 0}, 5, 0); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with bad input did not panic")
		}
	}()
	MustSchema()
}

// TestAtoi: Atoi reads what strconv.Atoi reads from the trimmed bytes,
// with the same value or the same error, on both sides of its 18-digit
// in-place limit.
func TestAtoi(t *testing.T) {
	for _, in := range []string{
		"", " ", "0", "7", "007", "+5", "-0", "-12", " 12 ", "\t3", "\u00a04\u2003",
		"123456789012345678", "000000000000000001", "1234567890123456789",
		"9223372036854775807", "9223372036854775808", "1_0", "0x1", "1 2", "1.", "١",
	} {
		got, gerr := Atoi([]byte(in))
		want, werr := strconv.Atoi(strings.TrimSpace(in))
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("Atoi(%q) = %d, %v; want %d, %v", in, got, gerr, want, werr)
		}
	}
}
