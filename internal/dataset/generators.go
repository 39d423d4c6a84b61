package dataset

import (
	"fmt"
	"math"

	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// Scale selects how closely a census-like dataset matches the paper's
// full domain sizes. The error behaviour of the mechanisms depends only on
// the matrix geometry, so smaller scales preserve the experiments' shape
// while fitting laptop memory.
type Scale int

const (
	// ScaleSmall is the default experiment profile (m ≈ 5·10⁵).
	ScaleSmall Scale = iota
	// ScaleMedium is an intermediate profile (m ≈ 2.6·10⁶).
	ScaleMedium
	// ScaleFull reproduces the paper's Table III domains (m > 10⁷ after
	// padding; needs several GiB).
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// CensusSpec describes the shape of a census-like dataset: the paper's
// Age/Gender/Occupation/Income schema with configurable domain sizes.
type CensusSpec struct {
	Name        string
	AgeSize     int
	OccGroups   int // level-2 nodes of the Occupation hierarchy
	OccPerGroup int // leaves per group
	IncomeSize  int
}

// BrazilSpec returns the Brazil dataset shape of Table III at the given
// scale. Full scale: Age 101, Gender 2 (h=2), Occupation 512 (h=3),
// Income 1001.
func BrazilSpec(scale Scale) CensusSpec {
	switch scale {
	case ScaleFull:
		return CensusSpec{Name: "Brazil", AgeSize: 101, OccGroups: 16, OccPerGroup: 32, IncomeSize: 1001}
	case ScaleMedium:
		return CensusSpec{Name: "Brazil", AgeSize: 101, OccGroups: 16, OccPerGroup: 8, IncomeSize: 101}
	default:
		return CensusSpec{Name: "Brazil", AgeSize: 64, OccGroups: 8, OccPerGroup: 8, IncomeSize: 64}
	}
}

// USSpec returns the US dataset shape of Table III at the given scale.
// Full scale: Age 96, Gender 2 (h=2), Occupation 511 (h=3), Income 1020.
func USSpec(scale Scale) CensusSpec {
	switch scale {
	case ScaleFull:
		return CensusSpec{Name: "US", AgeSize: 96, OccGroups: 7, OccPerGroup: 73, IncomeSize: 1020}
	case ScaleMedium:
		return CensusSpec{Name: "US", AgeSize: 96, OccGroups: 7, OccPerGroup: 19, IncomeSize: 96}
	default:
		return CensusSpec{Name: "US", AgeSize: 60, OccGroups: 7, OccPerGroup: 9, IncomeSize: 60}
	}
}

// OccSize returns the Occupation domain size.
func (c CensusSpec) OccSize() int { return c.OccGroups * c.OccPerGroup }

// Schema builds the 4-attribute census schema for the spec: ordinal Age,
// nominal Gender (flat, h=2), nominal Occupation (3 levels), ordinal
// Income.
func (c CensusSpec) Schema() (*Schema, error) {
	if c.AgeSize <= 0 || c.OccGroups <= 0 || c.OccPerGroup <= 0 || c.IncomeSize <= 0 {
		return nil, fmt.Errorf("dataset: invalid census spec %+v", c)
	}
	gender, err := hierarchy.Flat(2)
	if err != nil {
		return nil, err
	}
	occ, err := hierarchy.ThreeLevel(c.OccGroups, c.OccPerGroup)
	if err != nil {
		return nil, err
	}
	return NewSchema(
		OrdinalAttr("Age", c.AgeSize),
		NominalAttr("Gender", gender),
		NominalAttr("Occupation", occ),
		OrdinalAttr("Income", c.IncomeSize),
	)
}

// GenerateCensus draws n tuples from a census-like joint distribution over
// the spec's schema:
//
//   - Age: mixture of two clipped Gaussians (young-adult and middle-age
//     bulges) over [0, AgeSize);
//   - Gender: Bernoulli(0.49);
//   - Occupation: Zipf(1.1) over the leaves, so a few occupations
//     dominate — the skew that makes relative-error plots informative;
//   - Income: log-normal-like discretized draw whose location rises with
//     Age (realistic correlation), clipped to [0, IncomeSize).
//
// The exact shapes are unimportant to the mechanisms, whose error depends
// only on the matrix geometry (see Scale); what matters is skewed,
// correlated counts over the right matrix geometry.
func GenerateCensus(spec CensusSpec, n int, seed uint64) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative tuple count %d", n)
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	r := rng.New(seed)
	zipf := rng.NewZipf(spec.OccSize(), 1.1)
	ageScale := float64(spec.AgeSize)
	incScale := float64(spec.IncomeSize)
	for i := 0; i < n; i++ {
		// Age mixture: 60% young bulge, 40% middle-age bulge.
		var age float64
		if r.Float64() < 0.6 {
			age = 0.3*ageScale + r.NormFloat64()*0.12*ageScale
		} else {
			age = 0.55*ageScale + r.NormFloat64()*0.15*ageScale
		}
		ageV := clampInt(int(age), 0, spec.AgeSize-1)

		genderV := 0
		if r.Float64() >= 0.49 {
			genderV = 1
		}

		occV := zipf.Draw(r)

		// Income: exp of a Gaussian whose mean grows with age, mapped
		// into the income domain.
		loc := 0.25 + 0.5*float64(ageV)/ageScale
		inc := math.Exp(r.NormFloat64()*0.5) * loc * 0.4 * incScale
		incV := clampInt(int(inc), 0, spec.IncomeSize-1)

		if err := t.Append(ageV, genderV, occV, incV); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func ipow4(a int) int { return a * a * a * a }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// UniformSpec describes the §VII-B synthetic timing datasets: two ordinal
// and two nominal attributes, each with domain size m^(1/4); each nominal
// hierarchy has three levels with √|A| level-2 nodes.
type UniformSpec struct {
	// AttrSize is the per-attribute domain size (the paper's m^(1/4)).
	AttrSize int
}

// UniformSpecForM returns the spec with AttrSize = ⌊m^(1/4)⌋, the largest
// per-attribute size whose total domain does not exceed m.
func UniformSpecForM(m int) (UniformSpec, error) {
	if m < 16 {
		return UniformSpec{}, fmt.Errorf("dataset: m = %d too small for 4 attributes", m)
	}
	// Integer fourth root: float Pow can land just below an exact root
	// (e.g. 65536^0.25 → 15.999…), so correct by exact comparison.
	a := int(math.Floor(math.Pow(float64(m), 0.25)))
	for ipow4(a+1) <= m {
		a++
	}
	for a > 1 && ipow4(a) > m {
		a--
	}
	return UniformSpec{AttrSize: a}, nil
}

// Schema builds the 4-attribute uniform schema. The nominal hierarchies
// have three levels with round(√|A|) level-2 nodes (§VII-B); when |A| is
// not a perfect square the leaves are spread as evenly as possible, which
// keeps every leaf at depth 3.
func (u UniformSpec) Schema() (*Schema, error) {
	if u.AttrSize <= 0 {
		return nil, fmt.Errorf("dataset: invalid uniform spec %+v", u)
	}
	h1, err := sqrtGroupedHierarchy(u.AttrSize)
	if err != nil {
		return nil, err
	}
	h2, err := sqrtGroupedHierarchy(u.AttrSize)
	if err != nil {
		return nil, err
	}
	return NewSchema(
		OrdinalAttr("O1", u.AttrSize),
		OrdinalAttr("O2", u.AttrSize),
		NominalAttr("N1", h1),
		NominalAttr("N2", h2),
	)
}

// sqrtGroupedHierarchy builds a three-level hierarchy over size leaves
// with round(√size) groups, distributing leaves as evenly as possible.
func sqrtGroupedHierarchy(size int) (*hierarchy.Hierarchy, error) {
	groups := int(math.Round(math.Sqrt(float64(size))))
	if groups < 1 {
		groups = 1
	}
	if groups > size {
		groups = size
	}
	root := &hierarchy.Node{Label: "Any"}
	leaf := 0
	for g := 0; g < groups; g++ {
		lo := g * size / groups
		hi := (g + 1) * size / groups
		grp := &hierarchy.Node{Label: fmt.Sprintf("g%d", g)}
		for ; lo < hi; lo++ {
			grp.Children = append(grp.Children, &hierarchy.Node{Label: fmt.Sprintf("v%d", leaf)})
			leaf++
		}
		root.Children = append(root.Children, grp)
	}
	return hierarchy.Build(root)
}

// GenerateUniform draws n tuples with independently uniform values, the
// §VII-B workload for the computation-time experiments.
func GenerateUniform(spec UniformSpec, n int, seed uint64) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative tuple count %d", n)
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		if err := t.Append(
			r.Intn(spec.AttrSize), r.Intn(spec.AttrSize),
			r.Intn(spec.AttrSize), r.Intn(spec.AttrSize),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MedicalExample returns the paper's Table I medical-records table: eight
// tuples over Age group (5 ordinal buckets) and Has Diabetes (flat
// nominal, yes/no). Used by examples and documentation tests; its
// frequency matrix is Table II.
func MedicalExample() (*Table, error) {
	diab, err := hierarchy.Flat(2) // leaf 0 = Yes, leaf 1 = No
	if err != nil {
		return nil, err
	}
	schema, err := NewSchema(
		OrdinalAttr("Age", 5), // <30, 30-39, 40-49, 50-59, >=60
		NominalAttr("HasDiabetes", diab),
	)
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	rows := [][2]int{
		{0, 1}, {0, 1}, // <30 No, <30 No
		{1, 1},                 // 30-39 No
		{2, 1}, {2, 0}, {2, 1}, // 40-49 No, Yes, No
		{3, 1}, // 50-59 No
		{4, 0}, // >=60 Yes
	}
	for _, row := range rows {
		if err := t.Append(row[0], row[1]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
