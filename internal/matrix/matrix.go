// Package matrix implements the dense d-dimensional frequency matrix that
// underlies every mechanism in this repository (paper §II-B: the lowest
// level of the data cube of T).
//
// The layout is row-major over the dimension list: the last dimension is
// contiguous in memory. Three capabilities matter to Privelet:
//
//   - ApplyAlong runs a one-dimensional function over every vector along a
//     chosen dimension, optionally resizing that dimension — this is the
//     "standard decomposition" step of the HN wavelet transform (§VI-A);
//   - SubInto/SetSub extract and re-insert the sub-matrices Privelet+
//     forms by fixing coordinates on the SA dimensions (Figure 5, steps 2
//     and 7);
//   - PrefixSumExec/RangeSum turn the matrix into a summed-area table so
//     a range-count query is answered with at most 2^d lookups instead
//     of a scan.
package matrix

import (
	"context"
	"fmt"
	"math"
	"math/bits"
)

// Matrix is a dense d-dimensional array of float64. The zero value is not
// usable; construct with New.
type Matrix struct {
	dims    []int
	strides []int
	data    []float64
	// pin keeps an external owner of the data slice reachable for as long
	// as the matrix is: a matrix built by Wrap over a memory-mapped file
	// must keep the mapping object alive, or its finalizer could unmap
	// the pages out from under data. nil for heap-backed matrices.
	pin any
}

// MaxEntries bounds the total size New will allocate (2^31 entries, 16 GiB
// of float64), protecting experiments from typo-sized domains.
const MaxEntries = 1 << 31

// New allocates a zero matrix with the given dimension sizes.
func New(dims ...int) (*Matrix, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("matrix: need at least one dimension")
	}
	total := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: dimension %d has non-positive size %d", i, d)
		}
		if total > MaxEntries/d {
			return nil, fmt.Errorf("matrix: %v exceeds MaxEntries", dims)
		}
		total *= d
	}
	m := &Matrix{
		dims:    append([]int(nil), dims...),
		strides: Strides(dims),
		data:    make([]float64, total),
	}
	return m, nil
}

// MustNew is New for dimensions known to be valid; it panics on error.
// Intended for tests and examples.
func MustNew(dims ...int) *Matrix {
	m, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

// Wrap builds a matrix over data without copying it: len(data) must
// equal the product of dims. It is the zero-copy constructor behind
// mmap-backed release reloads — the caller keeps ownership of the
// backing memory, and pin (which may be nil) is retained for the life
// of the matrix so a finalizer-managed owner (a memory mapping) cannot
// be reclaimed while the matrix can still read it. Mutating a wrapped
// matrix writes through to data; callers wrapping read-only mappings
// must treat the matrix as immutable (Clone before any in-place
// operation — the clone is heap-backed and drops the pin).
func Wrap(data []float64, pin any, dims ...int) (*Matrix, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("matrix: need at least one dimension")
	}
	total := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("matrix: dimension %d has non-positive size %d", i, d)
		}
		if total > MaxEntries/d {
			return nil, fmt.Errorf("matrix: %v exceeds MaxEntries", dims)
		}
		total *= d
	}
	if total != len(data) {
		return nil, fmt.Errorf("matrix: Wrap of %d entries over dims %v (want %d)", len(data), dims, total)
	}
	return &Matrix{
		dims:    append([]int(nil), dims...),
		strides: Strides(dims),
		data:    data,
		pin:     pin,
	}, nil
}

// FromSlice builds a 1-dimensional matrix that copies v.
func FromSlice(v []float64) (*Matrix, error) {
	m, err := New(len(v))
	if err != nil {
		return nil, err
	}
	copy(m.data, v)
	return m, nil
}

// Dims returns a copy of the dimension sizes.
func (m *Matrix) Dims() []int { return append([]int(nil), m.dims...) }

// NumDims returns the dimensionality d.
func (m *Matrix) NumDims() int { return len(m.dims) }

// Dim returns the size of dimension i.
func (m *Matrix) Dim(i int) int { return m.dims[i] }

// Len returns the total number of entries, the paper's m.
func (m *Matrix) Len() int { return len(m.data) }

// Data exposes the backing slice in row-major order. Mutations are
// visible to the matrix; this is deliberate — noise injection iterates the
// flat coefficient array directly.
func (m *Matrix) Data() []float64 { return m.data }

// Offset converts coordinates to the flat index. It panics on coordinate
// count or range errors, which are programming errors in this codebase.
func (m *Matrix) Offset(coords ...int) int {
	if len(coords) != len(m.dims) {
		panic(fmt.Sprintf("matrix: got %d coordinates for %d dimensions", len(coords), len(m.dims)))
	}
	off := 0
	for i, c := range coords {
		if c < 0 || c >= m.dims[i] {
			panic(fmt.Sprintf("matrix: coordinate %d = %d out of [0,%d)", i, c, m.dims[i]))
		}
		off += c * m.strides[i]
	}
	return off
}

// Coords converts a flat index back to coordinates, filling dst (which
// must have length d) and returning it.
func (m *Matrix) Coords(offset int, dst []int) []int {
	for i := range m.dims {
		dst[i] = offset / m.strides[i]
		offset %= m.strides[i]
	}
	return dst
}

// At returns the entry at the given coordinates.
func (m *Matrix) At(coords ...int) float64 { return m.data[m.Offset(coords...)] }

// Set stores v at the given coordinates.
func (m *Matrix) Set(v float64, coords ...int) { m.data[m.Offset(coords...)] = v }

// Add adds v to the entry at the given coordinates.
func (m *Matrix) Add(v float64, coords ...int) { m.data[m.Offset(coords...)] += v }

// Fill sets every entry to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{
		dims:    append([]int(nil), m.dims...),
		strides: append([]int(nil), m.strides...),
		data:    append([]float64(nil), m.data...),
	}
	return out
}

// Total returns the sum of all entries (the number of tuples n when the
// matrix is an exact frequency matrix).
func (m *Matrix) Total() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// MaxAbsDiff returns max|m−o| entry-wise; shapes must match.
func (m *Matrix) MaxAbsDiff(o *Matrix) (float64, error) {
	if !sameDims(m.dims, o.dims) {
		return 0, fmt.Errorf("matrix: MaxAbsDiff shape mismatch %v vs %v", m.dims, o.dims)
	}
	d := 0.0
	for i, v := range m.data {
		if a := math.Abs(v - o.data[i]); a > d {
			d = a
		}
	}
	return d, nil
}

// AlmostEqual reports whether every entry differs by at most tol.
func (m *Matrix) AlmostEqual(o *Matrix, tol float64) bool {
	d, err := m.MaxAbsDiff(o)
	return err == nil && d <= tol
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApplyAlong applies f to every vector along dimension dim and returns a
// new matrix in which that dimension has size newSize. f receives the
// source vector (length Dim(dim)) and the destination (length newSize);
// it must fill dst completely and must not modify src. When dim is the
// innermost dimension f sees direct slices of the backing arrays
// (zero-copy); other strides gather/scatter through scratch buffers.
//
// This is the engine of the standard decomposition (§VI-A): a forward
// wavelet step grows the dimension from |A| to the coefficient count and
// an inverse step shrinks it back. It is the serial case of
// ApplyAlongPoolCtx; Pipeline chains steps without per-step allocation.
func (m *Matrix) ApplyAlong(dim int, newSize int, f func(src, dst []float64)) (*Matrix, error) {
	return m.ApplyAlongPoolCtx(context.Background(), dim, newSize, 1, SharedKernel(f))
}

// SetSub writes sub back into the region addressed by the fixed
// dimensions; the inverse of SubInto.
func (m *Matrix) SetSub(fixedDims, fixedCoords []int, sub *Matrix) error {
	freeDims, baseOff, err := m.subLayout(fixedDims, fixedCoords)
	if err != nil {
		return err
	}
	if len(sub.dims) != len(freeDims) {
		return fmt.Errorf("matrix: SetSub dimensionality %d, want %d", len(sub.dims), len(freeDims))
	}
	for i, d := range freeDims {
		if sub.dims[i] != m.dims[d] {
			return fmt.Errorf("matrix: SetSub dim %d size %d, want %d", i, sub.dims[i], m.dims[d])
		}
	}
	m.walkSub(freeDims, baseOff, func(srcOff, dstOff, n, stride int) {
		run := sub.data[dstOff : dstOff+n]
		if stride == 1 {
			copy(m.data[srcOff:], run)
			return
		}
		for k, v := range run {
			m.data[srcOff+k*stride] = v
		}
	})
	return nil
}

// subLayout validates the fixed-dimension spec and returns the free
// dimensions plus the base offset contributed by the fixed coordinates.
func (m *Matrix) subLayout(fixedDims, fixedCoords []int) (freeDims []int, baseOff int, err error) {
	if len(fixedDims) != len(fixedCoords) {
		return nil, 0, fmt.Errorf("matrix: %d fixed dims but %d coords", len(fixedDims), len(fixedCoords))
	}
	if len(fixedDims) >= len(m.dims) {
		return nil, 0, fmt.Errorf("matrix: fixing %d of %d dimensions leaves nothing free", len(fixedDims), len(m.dims))
	}
	fixed := make(map[int]bool, len(fixedDims))
	prev := -1
	for i, d := range fixedDims {
		if d < 0 || d >= len(m.dims) {
			return nil, 0, fmt.Errorf("matrix: fixed dimension %d out of range", d)
		}
		if d <= prev {
			return nil, 0, fmt.Errorf("matrix: fixed dimensions must be strictly increasing, got %v", fixedDims)
		}
		prev = d
		c := fixedCoords[i]
		if c < 0 || c >= m.dims[d] {
			return nil, 0, fmt.Errorf("matrix: fixed coordinate %d out of [0,%d) for dimension %d", c, m.dims[d], d)
		}
		fixed[d] = true
		baseOff += c * m.strides[d]
	}
	for d := range m.dims {
		if !fixed[d] {
			freeDims = append(freeDims, d)
		}
	}
	return freeDims, baseOff, nil
}

// walkSub enumerates the cross product of the free dimensions in runs
// along the innermost free dimension (joined with the free dimensions
// before it while they stay evenly spaced in m), invoking visit with a
// run's offset into m, its offset into the compact sub-matrix, its
// length and its stride in m. A Figure-5 sub-matrix is one run.
func (m *Matrix) walkSub(freeDims []int, baseOff int, visit func(srcOff, dstOff, n, stride int)) {
	last := len(freeDims) - 1
	stride, n := m.strides[freeDims[last]], m.dims[freeDims[last]]
	for last > 0 && m.strides[freeDims[last-1]] == stride*n {
		last--
		n *= m.dims[freeDims[last]]
	}
	outer := freeDims[:last]
	idx := make([]int, len(outer))
	srcOff := baseOff
	dstOff := 0
	for {
		visit(srcOff, dstOff, n, stride)
		dstOff += n
		// Odometer increment over the outer free dims, last varies fastest.
		k := len(outer) - 1
		for ; k >= 0; k-- {
			d := outer[k]
			idx[k]++
			srcOff += m.strides[d]
			if idx[k] < m.dims[d] {
				break
			}
			srcOff -= idx[k] * m.strides[d]
			idx[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// RangeSum evaluates the sum of the original entries inside the
// inclusive hyper-rectangle [lo, hi] of a matrix previously transformed by
// PrefixSumExec, using inclusion-exclusion over the 2^d corners.
//
// Bit i of a corner's mask picks lo[i]-1 over hi[i] in dimension i; the
// corners are added in increasing mask order, each negated when its mask
// has an odd bit count. A corner on a lo[i] = 0 face lies outside the
// table and adds nothing, so the walk visits only the masks over the k
// dimensions with lo[i] > 0, in the same order: from one mask to the
// next the offset moves by adj[t], t = TrailingZeros(mask), one add per
// corner. The sum therefore has the terms and the order of the plain
// loop over all 2^d masks, and matches it bit for bit on any table
// without NaN entries. It allocates nothing.
func (m *Matrix) RangeSum(lo, hi []int) (float64, error) {
	d := len(m.dims)
	if len(lo) != d || len(hi) != d {
		return 0, fmt.Errorf("matrix: RangeSum bounds dimensionality mismatch")
	}
	// A dimension with lo > 0 has at least two entries, so 2^k entries
	// fit in m.data and k < bits.UintSize-1.
	var adj [bits.UintSize - 1]int
	off, k, lower := 0, 0, 0
	for i := 0; i < d; i++ {
		if lo[i] < 0 || hi[i] >= m.dims[i] || lo[i] > hi[i] {
			return 0, fmt.Errorf("matrix: RangeSum bounds [%d,%d] invalid for dimension %d of size %d",
				lo[i], hi[i], i, m.dims[i])
		}
		off += hi[i] * m.strides[i]
		if lo[i] > 0 {
			// Setting bit k moves dimension i from hi[i] to lo[i]-1,
			// and clearing the bits below it moves theirs back.
			delta := (lo[i] - 1 - hi[i]) * m.strides[i]
			adj[k] = delta - lower
			lower += delta
			k++
		}
	}
	// Start from 0 and add, as the plain loop does: 0 + -0 is +0.
	total := 0.0
	total += m.data[off]
	for mask := 1; mask < 1<<k; mask++ {
		off += adj[bits.TrailingZeros(uint(mask))]
		v := m.data[off]
		if bits.OnesCount(uint(mask))&1 != 0 {
			v = -v
		}
		total += v
	}
	return total, nil
}

// NaiveRangeSum sums the entries inside [lo, hi] by direct enumeration.
// It is the reference implementation RangeSum is tested against and the
// fallback when no prefix table has been built.
func (m *Matrix) NaiveRangeSum(lo, hi []int) (float64, error) {
	d := len(m.dims)
	if len(lo) != d || len(hi) != d {
		return 0, fmt.Errorf("matrix: NaiveRangeSum bounds dimensionality mismatch")
	}
	for i := 0; i < d; i++ {
		if lo[i] < 0 || hi[i] >= m.dims[i] || lo[i] > hi[i] {
			return 0, fmt.Errorf("matrix: NaiveRangeSum bounds [%d,%d] invalid for dimension %d", lo[i], hi[i], i)
		}
	}
	idx := append([]int(nil), lo...)
	total := 0.0
	for {
		off := 0
		for i, c := range idx {
			off += c * m.strides[i]
		}
		total += m.data[off]
		k := d - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] <= hi[k] {
				break
			}
			idx[k] = lo[k]
		}
		if k < 0 {
			return total, nil
		}
	}
}

// Pad returns a copy with dimension dim grown to newSize; new entries are
// zero (the paper's dummy values for power-of-two padding). If newSize
// equals the current size the matrix is cloned.
func (m *Matrix) Pad(dim, newSize int) (*Matrix, error) {
	if dim < 0 || dim >= len(m.dims) {
		return nil, fmt.Errorf("matrix: Pad dimension %d out of range", dim)
	}
	if newSize < m.dims[dim] {
		return nil, fmt.Errorf("matrix: Pad cannot shrink dimension %d from %d to %d", dim, m.dims[dim], newSize)
	}
	old := m.dims[dim]
	return m.ApplyAlong(dim, newSize, func(src, dst []float64) {
		copy(dst, src)
		for j := old; j < newSize; j++ {
			dst[j] = 0
		}
	})
}

// AddMatrix adds o into m entry-wise; shapes must match.
func (m *Matrix) AddMatrix(o *Matrix) error {
	if !sameDims(m.dims, o.dims) {
		return fmt.Errorf("matrix: AddMatrix shape mismatch %v vs %v", m.dims, o.dims)
	}
	for i := range m.data {
		m.data[i] += o.data[i]
	}
	return nil
}

// Scale multiplies every entry by k.
func (m *Matrix) Scale(k float64) {
	for i := range m.data {
		m.data[i] *= k
	}
}
