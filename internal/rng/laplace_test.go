package rng

import (
	"encoding/binary"
	"math"
	"testing"
)

// referenceLaplace is Laplace as it was before the sign came from a bit
// of the draw: the inverse CDF with a branch on the sign of u.
// TestLaplaceMatchesReference and FuzzAddLaplace hold Laplace and
// AddLaplace to it, bit for bit and state for state.
func referenceLaplace(s *Source, magnitude float64) float64 {
	if magnitude <= 0 {
		return 0
	}
	// Inverse CDF applied to u uniform in (-1/2, 1/2):
	//   x = -b · sgn(u) · ln(1 - 2|u|)
	// A draw of 0 would put u on the -1/2 endpoint, where the logarithm
	// is -Inf, so it is drawn again.
	f := s.Float64()
	for f == 0 {
		f = s.Float64()
	}
	u := f - 0.5
	if u < 0 {
		return magnitude * math.Log(1+2*u) // note Log(1-2|u|) with sign folded in
	}
	return -magnitude * math.Log(1-2*u)
}

// unmix64 inverts mix64, so a test can put a Source in the state whose
// next Uint64 is any value it likes.
func unmix64(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= inverseOdd(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverseOdd(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// unxorshift inverts z ^ (z >> shift).
func unxorshift(z uint64, shift uint) uint64 {
	x := z
	for s := shift; s < 64; s += shift {
		x ^= z >> s
	}
	return x
}

// inverseOdd returns the inverse of an odd c modulo 2⁶⁴ by Newton's
// iteration; each step doubles the correct low bits.
func inverseOdd(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// sourceDrawing returns a Source whose next Uint64 is v.
func sourceDrawing(v uint64) *Source {
	return &Source{state: unmix64(v) - 0x9e3779b97f4a7c15}
}

// laplaceMagnitudes are the edge magnitudes every crafted state is
// drawn at: ordinary, zero of both signs, negative, infinite, NaN of
// both signs and with a payload, and the smallest and largest finite.
var laplaceMagnitudes = []float64{
	1.5, 0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8_0000_0000_0001), 5e-324, math.MaxFloat64,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestUnmix64(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 63, 0x0123456789abcdef, math.MaxUint64} {
		if got := mix64(unmix64(v)); got != v {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", v, got)
		}
		if got := sourceDrawing(v).Uint64(); got != v {
			t.Fatalf("sourceDrawing(%#x).Uint64() = %#x", v, got)
		}
	}
}

// TestLaplaceCraftedStates forces the 53-bit draw k to each edge of the
// sign split — k = 1, 2⁵² ± 1, 2⁵² and 2⁵³ - 1 — and to a zero draw,
// and holds Laplace and AddLaplace to referenceLaplace there at every
// edge magnitude: the same result bits and the same final state.
func TestLaplaceCraftedStates(t *testing.T) {
	states := []struct {
		name  string
		state uint64
	}{
		{"zero draw", sourceDrawing(0).state},
		{"k=1", sourceDrawing(1 << 11).state},
		{"k=2^52-1", sourceDrawing((1<<52 - 1) << 11).state},
		{"k=2^52", sourceDrawing(1 << 52 << 11).state},
		{"k=2^52+1", sourceDrawing((1<<52 + 1) << 11).state},
		{"k=2^53-1", sourceDrawing((1<<53 - 1) << 11).state},
	}
	for _, st := range states {
		for _, b := range laplaceMagnitudes {
			ref := &Source{state: st.state}
			want := referenceLaplace(ref, b)

			scalar := &Source{state: st.state}
			if got := scalar.Laplace(b); !sameBits(got, want) || scalar.state != ref.state {
				t.Errorf("%s, magnitude %v: Laplace = %#x (state %#x), reference %#x (state %#x)",
					st.name, b, math.Float64bits(got), scalar.state, math.Float64bits(want), ref.state)
			}
			for _, start := range []float64{0, math.Copysign(0, -1), 2.5} {
				blocked := &Source{state: st.state}
				dst := []float64{start}
				blocked.AddLaplace(dst, []float64{b})
				if w := start + want; !sameBits(dst[0], w) || blocked.state != ref.state {
					t.Errorf("%s, magnitude %v, start %v: AddLaplace = %#x (state %#x), reference %#x (state %#x)",
						st.name, b, start, math.Float64bits(dst[0]), blocked.state, math.Float64bits(w), ref.state)
				}
			}
		}
	}
	// The zero draw is redrawn, and k = 2⁵² - 1 and 2⁵² fall on either
	// side of the sign split.
	if v := (&Source{state: states[0].state}).Laplace(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("Laplace(1) after a zero draw = %v", v)
	}
	if lo, hi := (&Source{state: states[2].state}).Laplace(1), (&Source{state: states[3].state}).Laplace(1); lo >= 0 || hi != 0 {
		t.Fatalf("Laplace(1) at k = 2^52-1 and 2^52 = %v, %v; want a negative value and 0", lo, hi)
	}
}

// TestLaplaceMatchesReference holds Laplace to referenceLaplace over
// 10M draws from several seeds at magnitudes cycling through ordinary,
// tiny, huge and non-positive ones, and AddLaplace to it over another
// 10M, in slices of lengths around and across the block boundary.
func TestLaplaceMatchesReference(t *testing.T) {
	mags := []float64{1.5, 2, 0.1, 3.3e-7, 1e-300, 5e-324, 1.7e308, 0, -2}
	const perSeed = 2_000_000
	for _, seed := range []uint64{1, 7, 0xdeadbeef, 1<<63 + 5, 20261017} {
		ref, got := New(seed), New(seed)
		for i := 0; i < perSeed; i++ {
			b := mags[i%len(mags)]
			if w, g := referenceLaplace(ref, b), got.Laplace(b); !sameBits(w, g) {
				t.Fatalf("seed %d draw %d magnitude %v: Laplace = %#x, reference %#x",
					seed, i, b, math.Float64bits(g), math.Float64bits(w))
			}
		}
		if got.state != ref.state {
			t.Fatalf("seed %d: Laplace state %#x, reference %#x", seed, got.state, ref.state)
		}

		ref, got = New(seed), New(seed)
		dst := make([]float64, 1000)
		mag := make([]float64, len(dst))
		for i := range mag {
			mag[i] = mags[i%len(mags)]
		}
		for done, l := 0, 1; done < perSeed; done, l = done+l, (31*l+17)%len(dst)+1 {
			for i := range dst[:l] {
				dst[i] = float64(i)
			}
			got.AddLaplace(dst[:l], mag[:l])
			for i := range dst[:l] {
				if w := float64(i) + referenceLaplace(ref, mag[i]); !sameBits(w, dst[i]) {
					t.Fatalf("seed %d, slice of %d at %d, entry %d: AddLaplace = %#x, reference %#x",
						seed, l, done, i, math.Float64bits(dst[i]), math.Float64bits(w))
				}
			}
		}
		if got.state != ref.state {
			t.Fatalf("seed %d: AddLaplace state %#x, reference %#x", seed, got.state, ref.state)
		}
	}
}

// FuzzAddLaplace holds the blocked form to a loop of Laplace calls: for
// lengths up to four blocks, magnitudes and starting values from raw
// float bits, every entry must match bit for bit and so must the final
// state.
func FuzzAddLaplace(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint64(1), uint16(1), word(1.5))
	f.Add(uint64(7), uint16(LaplaceBlock+1), word(2, 0, -1, math.Inf(1), math.NaN()))
	f.Add(sourceDrawing(0).state, uint16(3), word(1, math.Copysign(0, -1), 5e-324))
	f.Add(uint64(42), uint16(4*LaplaceBlock), word(math.MaxFloat64, 1e-300, -0.5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, raw []byte) {
		words := make([]float64, max(1, len(raw)/8))
		for i := range words {
			if 8*i+8 <= len(raw) {
				words[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		l := int(n) % (4*LaplaceBlock + 1)
		dst, mag, want := make([]float64, l), make([]float64, l), make([]float64, l)
		for i := range dst {
			mag[i] = words[i%len(words)]
			dst[i] = words[(i+1)%len(words)]
		}
		ref := New(seed)
		for i := range want {
			want[i] = dst[i] + ref.Laplace(mag[i])
		}
		got := New(seed)
		got.AddLaplace(dst, mag)
		for i := range dst {
			if !sameBits(dst[i], want[i]) {
				t.Fatalf("entry %d of %d, magnitude %#x: %#x, Laplace loop %#x",
					i, l, math.Float64bits(mag[i]), math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
		if got.state != ref.state {
			t.Fatalf("state %#x, Laplace loop %#x", got.state, ref.state)
		}
	})
}
