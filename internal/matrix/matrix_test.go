package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no dims should fail")
	}
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("New(3,-1) should fail")
	}
	if _, err := New(1<<20, 1<<20); err == nil {
		t.Error("oversize New should fail")
	}
	m, err := New(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 60 || m.NumDims() != 3 {
		t.Fatalf("shape wrong: len=%d d=%d", m.Len(), m.NumDims())
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	m := MustNew(3, 4, 5)
	coords := make([]int, 3)
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				off := m.Offset(i, j, k)
				if off < 0 || off >= 60 || seen[off] {
					t.Fatalf("Offset(%d,%d,%d) = %d invalid or duplicate", i, j, k, off)
				}
				seen[off] = true
				m.Coords(off, coords)
				if coords[0] != i || coords[1] != j || coords[2] != k {
					t.Fatalf("Coords(%d) = %v, want [%d %d %d]", off, coords, i, j, k)
				}
			}
		}
	}
}

func TestRowMajorLayout(t *testing.T) {
	m := MustNew(2, 3)
	// Last dimension contiguous: (0,0),(0,1),(0,2),(1,0)...
	if m.Offset(0, 1) != 1 || m.Offset(1, 0) != 3 {
		t.Fatalf("layout not row-major: (0,1)=%d (1,0)=%d", m.Offset(0, 1), m.Offset(1, 0))
	}
}

func TestAtSetAdd(t *testing.T) {
	m := MustNew(2, 2)
	m.Set(3.5, 1, 0)
	if m.At(1, 0) != 3.5 {
		t.Fatal("Set/At round trip failed")
	}
	m.Add(1.5, 1, 0)
	if m.At(1, 0) != 5 {
		t.Fatal("Add failed")
	}
}

func TestOffsetPanics(t *testing.T) {
	m := MustNew(2, 2)
	for _, coords := range [][]int{{0}, {0, 0, 0}, {2, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offset(%v) did not panic", coords)
				}
			}()
			m.Offset(coords...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	v := []float64{1, 2, 3}
	m, err := FromSlice(v)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 99 // FromSlice must copy
	if m.At(0) != 1 {
		t.Fatal("FromSlice did not copy input")
	}
	if _, err := FromSlice(nil); err == nil {
		t.Error("FromSlice(nil) should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustNew(2, 2)
	m.Fill(7)
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestTotalAndScale(t *testing.T) {
	m := MustNew(2, 3)
	m.Fill(2)
	if m.Total() != 12 {
		t.Fatalf("Total = %v, want 12", m.Total())
	}
	m.Scale(0.5)
	if m.Total() != 6 {
		t.Fatalf("after Scale, Total = %v, want 6", m.Total())
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := MustNew(2, 2)
	b := MustNew(2, 2)
	b.Set(3, 0, 1)
	b.Set(-1, 1, 0)
	mx, err := a.MaxAbsDiff(b)
	if err != nil || mx != 3 {
		t.Fatalf("MaxAbsDiff = %v, %v; want 3", mx, err)
	}
	if _, err := a.MaxAbsDiff(MustNew(4)); err == nil {
		t.Error("MaxAbsDiff shape mismatch should fail")
	}
}

func TestAlmostEqual(t *testing.T) {
	a := MustNew(3)
	b := MustNew(3)
	b.Set(1e-10, 2)
	if !a.AlmostEqual(b, 1e-9) {
		t.Error("AlmostEqual too strict")
	}
	if a.AlmostEqual(b, 1e-11) {
		t.Error("AlmostEqual too lax")
	}
}

func TestApplyAlongReverse(t *testing.T) {
	m := MustNew(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(float64(10*i+j), i, j)
		}
	}
	rev, err := m.ApplyAlong(1, 3, func(src, dst []float64) {
		for k := range src {
			dst[len(src)-1-k] = src[k]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rev.At(0, 0) != 2 || rev.At(1, 2) != 10 {
		t.Fatalf("reverse along dim1 wrong: %v", rev.Data())
	}
}

func TestApplyAlongResize(t *testing.T) {
	m := MustNew(2, 2)
	m.Fill(1)
	grown, err := m.ApplyAlong(0, 4, func(src, dst []float64) {
		copy(dst, src)
		dst[2], dst[3] = -1, -2
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDims := []int{4, 2}
	if !sameDims(grown.Dims(), wantDims) {
		t.Fatalf("dims = %v, want %v", grown.Dims(), wantDims)
	}
	if grown.At(0, 0) != 1 || grown.At(2, 1) != -1 || grown.At(3, 0) != -2 {
		t.Fatalf("resize content wrong: %v", grown.Data())
	}
}

func TestApplyAlongAllDims(t *testing.T) {
	// Doubling along each dimension in turn must double every entry once
	// per application, regardless of which dimension is traversed.
	m := MustNew(2, 3, 4)
	data := m.Data()
	r := rng.New(1)
	for i := range data {
		data[i] = r.Float64()
	}
	want := m.Clone()
	want.Scale(8)
	cur := m
	for dim := 0; dim < 3; dim++ {
		next, err := cur.ApplyAlong(dim, cur.Dim(dim), func(src, dst []float64) {
			for k := range src {
				dst[k] = 2 * src[k]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if !cur.AlmostEqual(want, 1e-12) {
		t.Fatal("ApplyAlong over all dims did not visit each entry exactly once per dim")
	}
}

func TestApplyAlongErrors(t *testing.T) {
	m := MustNew(2, 2)
	if _, err := m.ApplyAlong(2, 2, func(src, dst []float64) {}); err == nil {
		t.Error("out-of-range dim should fail")
	}
	if _, err := m.ApplyAlong(0, 0, func(src, dst []float64) {}); err == nil {
		t.Error("zero newSize should fail")
	}
}

func TestSubAndSetSub(t *testing.T) {
	m := MustNew(2, 3, 2)
	val := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 2; k++ {
				m.Set(val, i, j, k)
				val++
			}
		}
	}
	sub, err := m.SubInto([]int{1}, []int{2}, nil) // fix middle dim at 2
	if err != nil {
		t.Fatal(err)
	}
	if !sameDims(sub.Dims(), []int{2, 2}) {
		t.Fatalf("sub dims = %v", sub.Dims())
	}
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			if sub.At(i, k) != m.At(i, 2, k) {
				t.Fatalf("sub(%d,%d) = %v, want %v", i, k, sub.At(i, k), m.At(i, 2, k))
			}
		}
	}
	// Round trip through SetSub.
	sub.Scale(10)
	if err := m.SetSub([]int{1}, []int{2}, sub); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2, 1) != sub.At(1, 1) {
		t.Fatal("SetSub did not write back")
	}
	if m.At(1, 1, 1) == sub.At(1, 1) {
		t.Fatal("SetSub leaked outside its region")
	}

	// Fixing the last dimension leaves strided runs: every entry of the
	// sub-matrix sits m.Dim(2) apart in m.
	last, err := m.SubInto([]int{2}, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDims(last.Dims(), []int{2, 3}) {
		t.Fatalf("last-dim sub dims = %v", last.Dims())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if last.At(i, j) != m.At(i, j, 1) {
				t.Fatalf("last-dim sub(%d,%d) = %v, want %v", i, j, last.At(i, j), m.At(i, j, 1))
			}
			last.Set(-float64(10*i+j)-1, i, j)
		}
	}
	before := m.Clone()
	if err := m.SetSub([]int{2}, []int{1}, last); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got, want := m.At(i, j, 1), -float64(10*i+j)-1; got != want {
				t.Fatalf("SetSub of last-dim sub: m(%d,%d,1) = %v, want %v", i, j, got, want)
			}
			if m.At(i, j, 0) != before.At(i, j, 0) {
				t.Fatalf("SetSub of last-dim sub wrote m(%d,%d,0)", i, j)
			}
		}
	}
}

func TestSubMultipleFixedDims(t *testing.T) {
	m := MustNew(3, 4, 5, 2)
	data := m.Data()
	for i := range data {
		data[i] = float64(i)
	}
	sub, err := m.SubInto([]int{0, 2}, []int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDims(sub.Dims(), []int{4, 2}) {
		t.Fatalf("sub dims = %v, want [4 2]", sub.Dims())
	}
	for j := 0; j < 4; j++ {
		for l := 0; l < 2; l++ {
			if sub.At(j, l) != m.At(1, j, 3, l) {
				t.Fatalf("sub(%d,%d) mismatch", j, l)
			}
		}
	}
}

func TestSubErrors(t *testing.T) {
	m := MustNew(2, 2)
	if _, err := m.SubInto([]int{0, 1}, []int{0, 0}, nil); err == nil {
		t.Error("fixing all dims should fail")
	}
	if _, err := m.SubInto([]int{0}, []int{0, 1}, nil); err == nil {
		t.Error("mismatched coord count should fail")
	}
	if _, err := m.SubInto([]int{1, 0}, []int{0, 0}, nil); err == nil {
		t.Error("non-increasing fixed dims should fail")
	}
	if _, err := m.SubInto([]int{0}, []int{5}, nil); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
	if _, err := m.SubInto([]int{7}, []int{0}, nil); err == nil {
		t.Error("out-of-range dim should fail")
	}
	sub := MustNew(3)
	if err := m.SetSub([]int{0}, []int{0}, sub); err == nil {
		t.Error("SetSub wrong shape should fail")
	}
}

func TestPrefixSum1D(t *testing.T) {
	m, _ := FromSlice([]float64{1, 2, 3, 4})
	m.PrefixSumExec(1)
	want := []float64{1, 3, 6, 10}
	for i, w := range want {
		if m.At(i) != w {
			t.Fatalf("prefix[%d] = %v, want %v", i, m.At(i), w)
		}
	}
}

func TestRangeSumAgainstNaive(t *testing.T) {
	m := MustNew(4, 5, 3)
	r := rng.New(2)
	data := m.Data()
	for i := range data {
		data[i] = math.Floor(r.Float64() * 10)
	}
	p := m.Clone()
	p.PrefixSumExec(1)
	for trial := 0; trial < 200; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for d, size := range m.Dims() {
			a, b := r.Intn(size), r.Intn(size)
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		want, err := m.NaiveRangeSum(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RangeSum(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("RangeSum(%v,%v) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestRangeSumFullMatrix(t *testing.T) {
	m := MustNew(3, 3)
	m.Fill(1)
	total := m.Total()
	p := m.Clone()
	p.PrefixSumExec(1)
	got, err := p.RangeSum([]int{0, 0}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("full-range sum = %v, want %v", got, total)
	}
}

func TestRangeSumErrors(t *testing.T) {
	m := MustNew(2, 2)
	p := m.Clone()
	p.PrefixSumExec(1)
	cases := [][2][]int{
		{{0}, {1}},        // wrong dims
		{{0, 0}, {0, 2}},  // hi out of range
		{{-1, 0}, {1, 1}}, // lo negative
		{{1, 1}, {0, 0}},  // lo > hi
	}
	for _, c := range cases {
		if _, err := p.RangeSum(c[0], c[1]); err == nil {
			t.Errorf("RangeSum(%v,%v) should fail", c[0], c[1])
		}
		if _, err := m.NaiveRangeSum(c[0], c[1]); err == nil {
			t.Errorf("NaiveRangeSum(%v,%v) should fail", c[0], c[1])
		}
	}
}

func TestPad(t *testing.T) {
	m := MustNew(3, 2)
	data := m.Data()
	for i := range data {
		data[i] = float64(i + 1)
	}
	p, err := m.Pad(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim(0) != 5 {
		t.Fatalf("padded dim = %d", p.Dim(0))
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i < 3 {
				want = m.At(i, j)
			}
			if p.At(i, j) != want {
				t.Fatalf("padded (%d,%d) = %v, want %v", i, j, p.At(i, j), want)
			}
		}
	}
	if _, err := m.Pad(0, 2); err == nil {
		t.Error("Pad shrink should fail")
	}
	if _, err := m.Pad(5, 9); err == nil {
		t.Error("Pad bad dim should fail")
	}
}

func TestAddMatrix(t *testing.T) {
	a := MustNew(2, 2)
	a.Fill(1)
	b := MustNew(2, 2)
	b.Fill(2)
	if err := a.AddMatrix(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 12 {
		t.Fatalf("AddMatrix total = %v, want 12", a.Total())
	}
	c := MustNew(3)
	if err := a.AddMatrix(c); err == nil {
		t.Error("AddMatrix shape mismatch should fail")
	}
}

// Property: prefix-sum range queries agree with naive enumeration on
// random 2-D matrices and random rectangles.
func TestRangeSumQuick(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		r := rng.New(seed)
		rows := int(aRaw%6) + 1
		cols := int(bRaw%6) + 1
		m := MustNew(rows, cols)
		data := m.Data()
		for i := range data {
			data[i] = math.Floor(r.Float64()*7) - 3
		}
		p := m.Clone()
		p.PrefixSumExec(1)
		lo := []int{r.Intn(rows), r.Intn(cols)}
		hi := []int{lo[0] + r.Intn(rows-lo[0]), lo[1] + r.Intn(cols-lo[1])}
		want, err1 := m.NaiveRangeSum(lo, hi)
		got, err2 := p.RangeSum(lo, hi)
		return err1 == nil && err2 == nil && math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Sub followed by SetSub of the unmodified sub-matrix is the
// identity.
func TestSubRoundTripQuick(t *testing.T) {
	f := func(seed uint64, fixRaw uint8) bool {
		r := rng.New(seed)
		m := MustNew(3, 4, 2)
		data := m.Data()
		for i := range data {
			data[i] = r.Float64()
		}
		orig := m.Clone()
		fixDim := int(fixRaw % 3)
		coord := r.Intn(m.Dim(fixDim))
		sub, err := m.SubInto([]int{fixDim}, []int{coord}, nil)
		if err != nil {
			return false
		}
		if err := m.SetSub([]int{fixDim}, []int{coord}, sub); err != nil {
			return false
		}
		return m.AlmostEqual(orig, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
