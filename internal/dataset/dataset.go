// Package dataset implements the relational-table substrate of the paper
// (§II-A): a table T over d attributes, each ordinal (discrete, ordered)
// or nominal (discrete, hierarchy-bearing), plus the mapping from T to its
// d-dimensional frequency matrix M (§II-B).
//
// The package also hosts the synthetic data generators that stand in for
// data the paper used but this repository cannot ship (IPUMS census
// extracts are not redistributable):
// census-like generators matching the IPUMS Brazil/US schema shapes of
// Table III, and the uniform generator of §VII-B used for the timing
// experiments.
package dataset

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/transform"
)

// Kind distinguishes ordinal from nominal attributes.
type Kind int

const (
	// Ordinal attributes have a totally ordered integer domain [0, Size).
	Ordinal Kind = iota
	// Nominal attributes have an unordered domain with a hierarchy; the
	// domain values are the hierarchy's leaves in imposed order.
	Nominal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Ordinal:
		return "ordinal"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a table.
type Attribute struct {
	Name string
	Kind Kind
	// Size is the domain size |A|. For nominal attributes it is derived
	// from the hierarchy and may be left zero when constructing.
	Size int
	// Hier is required for nominal attributes.
	Hier *hierarchy.Hierarchy
}

// OrdinalAttr returns an ordinal attribute.
func OrdinalAttr(name string, size int) Attribute {
	return Attribute{Name: name, Kind: Ordinal, Size: size}
}

// NominalAttr returns a nominal attribute over hierarchy h.
func NominalAttr(name string, h *hierarchy.Hierarchy) Attribute {
	return Attribute{Name: name, Kind: Nominal, Hier: h}
}

// Schema is a validated attribute list. Construct with NewSchema.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
	// names, kinds and tops hold each attribute's Name, Kind and top
	// bound Size−1, in attribute order (see Columns).
	names []string
	kinds []Kind
	tops  []int
}

// NewSchema validates the attributes: unique non-empty names, positive
// ordinal sizes, hierarchies on nominal attributes.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one attribute")
	}
	s := &Schema{byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		switch a.Kind {
		case Ordinal:
			if a.Size <= 0 {
				return nil, fmt.Errorf("dataset: ordinal attribute %q has size %d", a.Name, a.Size)
			}
		case Nominal:
			if a.Hier == nil {
				return nil, fmt.Errorf("dataset: nominal attribute %q lacks a hierarchy", a.Name)
			}
			if a.Size != 0 && a.Size != a.Hier.LeafCount() {
				return nil, fmt.Errorf("dataset: nominal attribute %q size %d != leaf count %d",
					a.Name, a.Size, a.Hier.LeafCount())
			}
			a.Size = a.Hier.LeafCount()
		default:
			return nil, fmt.Errorf("dataset: attribute %q has unknown kind %v", a.Name, a.Kind)
		}
		s.byName[a.Name] = i
		s.attrs = append(s.attrs, a)
		s.names = append(s.names, a.Name)
		s.kinds = append(s.kinds, a.Kind)
		s.tops = append(s.tops, a.Size-1)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes d.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns attribute i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Columns returns each attribute's name, kind and top bound (Size−1) in
// attribute order, from arrays NewSchema builds once, so a loop run for
// every query spec reads them without copying an Attribute. The slices
// are the schema's own; callers must not modify them.
func (s *Schema) Columns() (names []string, kinds []Kind, tops []int) {
	return s.names, s.kinds, s.tops
}

// Names returns the attribute names in attribute order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Index returns the position of the named attribute, or an error.
func (s *Schema) Index(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("dataset: no attribute named %q", name)
	}
	return i, nil
}

// Dims returns the domain sizes in attribute order — the frequency
// matrix shape.
func (s *Schema) Dims() []int {
	out := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Size
	}
	return out
}

// DomainSize returns m = ∏|A_i|, the frequency matrix entry count.
func (s *Schema) DomainSize() int {
	m := 1
	for _, a := range s.attrs {
		m *= a.Size
	}
	return m
}

// Specs returns the transform dimension specs for the schema, in
// attribute order.
func (s *Schema) Specs() []transform.Spec {
	out := make([]transform.Spec, len(s.attrs))
	for i, a := range s.attrs {
		if a.Kind == Ordinal {
			out[i] = transform.Ordinal(a.Size)
		} else {
			out[i] = transform.Nominal(a.Hier)
		}
	}
	return out
}

// SubSchema returns a schema over the named subset of attributes (used by
// Privelet+ to describe sub-matrices) plus their positions in the parent.
func (s *Schema) SubSchema(names []string) (*Schema, []int, error) {
	var attrs []Attribute
	var idx []int
	for _, name := range names {
		i, err := s.Index(name)
		if err != nil {
			return nil, nil, err
		}
		attrs = append(attrs, s.attrs[i])
		idx = append(idx, i)
	}
	sub, err := NewSchema(attrs...)
	if err != nil {
		return nil, nil, err
	}
	return sub, idx, nil
}

// Table is a multiset of tuples over a schema. Values are stored as a
// flat row-major int32 slice to keep 10-million-row tables cheap.
type Table struct {
	schema *Schema
	vals   []int32
}

// NewTable returns an empty table over schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of tuples n.
func (t *Table) Len() int { return len(t.vals) / t.schema.NumAttrs() }

// Append adds one tuple; vals[i] must lie in [0, |A_i|).
func (t *Table) Append(vals ...int) error {
	d := t.schema.NumAttrs()
	if len(vals) != d {
		return fmt.Errorf("dataset: tuple has %d values, want %d", len(vals), d)
	}
	for i, v := range vals {
		if v < 0 || v >= t.schema.attrs[i].Size {
			return fmt.Errorf("dataset: value %d out of domain [0,%d) for attribute %q",
				v, t.schema.attrs[i].Size, t.schema.attrs[i].Name)
		}
	}
	for _, v := range vals {
		t.vals = append(t.vals, int32(v))
	}
	return nil
}

// Row copies tuple i into dst (length d) and returns it; dst may be nil.
func (t *Table) Row(i int, dst []int) []int {
	d := t.schema.NumAttrs()
	if dst == nil {
		dst = make([]int, d)
	}
	base := i * d
	for j := 0; j < d; j++ {
		dst[j] = int(t.vals[base+j])
	}
	return dst
}

// FrequencyMatrix maps the table to its frequency matrix M: entry
// ⟨x_1..x_d⟩ counts the tuples equal to that coordinate vector (§II-B).
// Runs in O(n + m).
func (t *Table) FrequencyMatrix() (*matrix.Matrix, error) {
	m, err := matrix.New(t.schema.Dims()...)
	if err != nil {
		return nil, err
	}
	d := t.schema.NumAttrs()
	strides := matrix.Strides(t.schema.Dims())
	data := m.Data()
	for base := 0; base < len(t.vals); base += d {
		off := 0
		for j := 0; j < d; j++ {
			off += int(t.vals[base+j]) * strides[j]
		}
		data[off]++
	}
	return m, nil
}

// Digits reads the run of ASCII digits that starts at b[from] in
// place, and returns its value and the index after it. ok is false if
// the run is empty or longer than 18 digits (9 for a 32-bit int), where
// the value could overflow.
func Digits(b []byte, from int) (v, end int, ok bool) {
	for end = from; end < len(b) && '0' <= b[end] && b[end] <= '9'; end++ {
		v = v*10 + int(b[end]-'0')
	}
	return v, end, end > from && end-from <= strconv.IntSize*9/32
}

// Atoi parses a domain value, a CSV field or a query bound, as
// strconv.Atoi parses b with the space around it trimmed. A field that
// Digits reads whole is read in place, without an allocation; anything
// else goes through strconv.Atoi, so signs, leading zeros, overflow and
// the error are strconv's.
func Atoi(b []byte) (int, error) {
	if v, end, ok := Digits(b, 0); ok && end == len(b) {
		return v, nil
	}
	return strconv.Atoi(string(bytes.TrimSpace(b)))
}

// Trim returns the bounds of bytes.TrimSpace(b[lo:hi]) within b. Only
// an ASCII space or a byte ≥ 0x80 can begin or end a Unicode space, so
// a span whose edge bytes are neither is returned as it is; any other
// is trimmed as TrimSpace trims, leading spaces, then trailing ones.
func Trim(b []byte, lo, hi int) (int, int) {
	if lo < hi && (MaySpace(b[lo]) || MaySpace(b[hi-1])) {
		lo = hi - len(bytes.TrimLeftFunc(b[lo:hi], unicode.IsSpace))
		hi = lo + len(bytes.TrimRightFunc(b[lo:hi], unicode.IsSpace))
	}
	return lo, hi
}

// MaySpace reports whether c is an ASCII space or may be part of a
// multi-byte one.
func MaySpace(c byte) bool {
	return c >= utf8.RuneSelf || c == ' ' || '\t' <= c && c <= '\r'
}
