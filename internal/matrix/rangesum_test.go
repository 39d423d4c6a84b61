package matrix

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// referenceRangeSum is RangeSum as the plain inclusion-exclusion loop:
// every one of the 2^d corner masks in increasing order, each corner's
// offset summed afresh, a corner on a lo = 0 face skipped, and the rest
// added with sign ±1. FuzzRangeSum holds RangeSum's corner walk to it
// bit for bit.
func referenceRangeSum(m *Matrix, lo, hi []int) (float64, error) {
	d := len(m.dims)
	if len(lo) != d || len(hi) != d {
		return 0, fmt.Errorf("matrix: RangeSum bounds dimensionality mismatch")
	}
	for i := 0; i < d; i++ {
		if lo[i] < 0 || hi[i] >= m.dims[i] || lo[i] > hi[i] {
			return 0, fmt.Errorf("matrix: RangeSum bounds [%d,%d] invalid for dimension %d of size %d",
				lo[i], hi[i], i, m.dims[i])
		}
	}
	total := 0.0
	for mask := 0; mask < 1<<d; mask++ {
		off := 0
		sign := 1.0
		skip := false
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				if lo[i] == 0 {
					skip = true // the lo-1 face is outside the table: term is 0
					break
				}
				off += (lo[i] - 1) * m.strides[i]
				sign = -sign
			} else {
				off += hi[i] * m.strides[i]
			}
		}
		if skip {
			continue
		}
		total += sign * m.data[off]
	}
	return total, nil
}

// FuzzRangeSum draws a table of 1 to 6 dimensions whose entries mix
// zeros, negative zeros, small integers and magnitudes from 1e-12 to
// 1e12, so that any change in the terms, their signs or their order
// shows in the sum's bits. Its queries often sit on lo = 0 faces, and
// some are out of bounds. RangeSum must return the reference's float64
// bits, or its error. Seed corpus under testdata/fuzz/FuzzRangeSum; CI
// runs a short -fuzz smoke on top of the checked-in seeds.
func FuzzRangeSum(f *testing.F) {
	for _, seed := range []struct {
		seed uint64
		d    uint8
	}{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {921, 4}, {1 << 40, 6}} {
		f.Add(seed.seed, seed.d)
	}
	f.Fuzz(func(t *testing.T, seed uint64, dRaw uint8) {
		r := rng.New(seed)
		d := 1 + int(dRaw)%6
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + r.Intn(5)
		}
		m := MustNew(dims...)
		for i := range m.data {
			switch r.Intn(5) {
			case 0:
				m.data[i] = 0
			case 1:
				m.data[i] = math.Copysign(0, -1)
			case 2:
				m.data[i] = float64(r.Intn(21) - 10)
			default:
				m.data[i] = r.Laplace(1) * math.Pow(10, float64(r.Intn(25)-12))
			}
		}
		lo, hi := make([]int, d), make([]int, d)
		for q := 0; q < 32; q++ {
			for i, n := range dims {
				lo[i], hi[i] = r.Intn(n), r.Intn(n)
				if lo[i] > hi[i] {
					lo[i], hi[i] = hi[i], lo[i]
				}
				if r.Intn(3) == 0 {
					lo[i] = 0
				}
				if r.Intn(50) == 0 {
					hi[i] = n // out of bounds
				}
			}
			want, wantErr := referenceRangeSum(m, lo, hi)
			got, err := m.RangeSum(lo, hi)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("dims %v: RangeSum(%v, %v) err = %v, reference %v", dims, lo, hi, err, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dims %v: RangeSum(%v, %v) = %v (%#x), reference %v (%#x)",
					dims, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
