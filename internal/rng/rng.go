// Package rng provides a small, deterministic random number generator and
// the distribution samplers the Privelet mechanisms need — chiefly the
// Laplace noise every mechanism in the paper injects (§II-B, §III).
//
// All randomness in this repository flows through rng.Source so that every
// experiment is reproducible from a single uint64 seed, independent of any
// changes to math/rand across Go releases: a release is a pure function of
// (data, parameters, seed), bit-identical at any parallelism, because the
// parallel publish engine keys every unit of work to a position-independent
// substream of the seed (see Substream and docs/ARCHITECTURE.md for the
// exact numbering contract). The generator is splitmix64
// (Steele, Lea, Flood 2014), which passes BigCrush and is trivially
// seedable; it is not cryptographically secure, which is acceptable here
// because we reproduce a paper's statistical behaviour rather than ship a
// hardened DP release pipeline (see README: "Security note").
package rng

import (
	"crypto/rand"
	"encoding/binary"
	"math"
)

// Source is a deterministic pseudo-random generator. The zero value is a
// valid generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield independent-
// looking streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche function on
// uint64. It is the same mixing step Uint64 applies to its counter, used
// standalone for key derivation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Substream returns the deterministic Source for substream `stream` of the
// given seed. The derivation is position-independent: it depends only on
// (seed, stream), never on how many draws any other source has made, so
// work split across a worker pool can give each unit a substream keyed
// by its index and produce bit-identical output at any parallelism level.
//
// The derivation hashes seed and stream through two rounds of the
// splitmix64 finalizer with distinct additive constants, so substreams of
// the same seed — and equal stream indices of different seeds — start in
// well-separated states.
//
// The publish engine uses a fixed two-level numbering (the determinism
// contract of docs/ARCHITECTURE.md): level one keys stream k of the
// publish seed to the k-th unit of independent work — sub-matrix k of the
// Figure-5 fan-out in internal/core, enumerated in the paper's mixed-radix
// SA coordinate order — and level two re-substreams each unit's derived
// seed (SubstreamSeed) by chunk index for the noise-injection fan-out in
// internal/privacy, chunk c covering coefficient offsets
// [c·64Ki, (c+1)·64Ki). Both levels depend only on indices, never on
// worker count or visit order, which is what makes releases bit-identical
// (float64 ==) at any parallelism.
func Substream(seed, stream uint64) *Source {
	return New(SubstreamSeed(seed, stream))
}

// SubstreamSeed returns the derived seed Substream(seed, stream) starts
// from. It exists so substream derivation can nest: a unit of work keyed
// by stream k can hand SubstreamSeed(seed, k) to a lower level that
// substreams it again by a finer index (internal/privacy does this per
// noise chunk), keeping every level position-independent.
func SubstreamSeed(seed, stream uint64) uint64 {
	return mix64(mix64(seed+0x9e3779b97f4a7c15) + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
}

// FreshSeed returns a seed read from crypto/rand, for a publish whose
// caller named none. A fixed default seed would let anyone who knows the
// schema regenerate such a release's noise and subtract it; a fresh seed
// is known to no one, so the release cannot be replayed either.
func FreshSeed() uint64 {
	var b [8]byte
	_, _ = rand.Read(b[:]) // it never returns an error: it crashes the program instead
	return binary.LittleEndian.Uint64(b[:])
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Float64 returns a uniform float64 in [0, 1). It uses the top 53 bits of
// a Uint64 draw, so every representable value in [0,1) with 53-bit
// precision is possible.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand. Modulo bias is removed by rejection sampling.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	// Rejection threshold: the largest multiple of bound below 2^64.
	limit := -bound % bound // == (2^64 - bound) mod bound == 2^64 mod bound
	for {
		v := s.Uint64()
		if v >= limit {
			return int(v % bound)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal draw using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached so
// that Source remains a plain value type with one word of state.
func (s *Source) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue // avoid log(0)
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Laplace returns one draw from the Laplace (double exponential)
// distribution with mean 0 and the given magnitude (scale) b, whose
// density is (1/2b)·exp(-|x|/b) — Equation 1 of the paper. The variance of
// the returned variable is 2b².
//
// A non-positive magnitude returns 0 and draws nothing: the mechanisms
// use magnitude 0 to encode "this coefficient needs no noise" (e.g.
// structurally-zero nominal coefficients under fanout-1 groups).
func (s *Source) Laplace(magnitude float64) float64 {
	if magnitude <= 0 {
		return 0
	}
	arg, sign := s.laplaceDraw()
	return math.Float64frombits(math.Float64bits(magnitude)^sign) * math.Log(arg)
}

// laplaceDraw makes the random part of one Laplace draw, which Laplace
// and AddLaplace share: the variate of magnitude b is b·ln(arg), with
// b's sign bit flipped when sign is 1<<63.
//
// The inverse CDF applied to u uniform in (-1/2, 1/2) is
//
//	x = -b · sgn(u) · ln(1 - 2|u|).
//
// u is k/2⁵³ - 1/2 for the top 53 bits k of a Uint64 draw, so bit 52 of
// k is set exactly when u ≥ 0, and 1 - 2|u| is k/2⁵² when it is clear
// and (2⁵³ - k)/2⁵² when it is set. Both quotients are exact, so arg is
// the 1 + 2u or 1 - 2u of the textbook form bit for bit, and the sign
// comes from the bit, not from a branch on u that a random draw
// mispredicts half the time. A draw k = 0 would put u on the -1/2
// endpoint, where the logarithm is -Inf, so it is drawn again.
//
// The sign goes on b, not on the product, so every bit of the textbook
// form's -b·ln(1 - 2u) is kept, NaN included: at b = +Inf and arg = 1,
// (-Inf)·0 and -(Inf·0) are NaNs of opposite sign.
func (s *Source) laplaceDraw() (arg float64, sign uint64) {
	var k uint64
	for k == 0 {
		k = s.Uint64() >> 11
	}
	neg := k >> 52
	k ^= (k ^ (1<<53 - k)) & -neg
	return float64(int64(k)) * 0x1p-52, neg << 63
}

// LaplaceBlock is how many variates AddLaplace draws before it takes
// their logarithms.
const LaplaceBlock = 256

// AddLaplace adds a Laplace draw of magnitude[i] to each dst[i]. It is
//
//	for i := range dst { dst[i] += s.Laplace(magnitude[i]) }
//
// with the same bits in dst and the same final state for every
// magnitude: a non-positive one draws nothing and adds +0. It works in
// blocks of up to LaplaceBlock entries: it draws every argument of a
// block, then takes their logarithms in one tight loop, then scales and
// adds them. magnitude must be at least as long as dst.
func (s *Source) AddLaplace(dst, magnitude []float64) {
	var arg, signed [LaplaceBlock]float64
	for len(dst) > 0 {
		n := min(len(dst), LaplaceBlock)
		for i, b := range magnitude[:n] {
			if b <= 0 {
				arg[i], signed[i] = 1, 0 // +0 · ln 1 = +0
				continue
			}
			a, sign := s.laplaceDraw()
			arg[i], signed[i] = a, math.Float64frombits(math.Float64bits(b)^sign)
		}
		for i, a := range arg[:n] {
			arg[i] = math.Log(a)
		}
		for i := range dst[:n] {
			// The conversion rounds the product, so it is never fused
			// into the sum: each term is the value Laplace returns.
			dst[i] += float64(signed[i] * arg[i])
		}
		dst, magnitude = dst[n:], magnitude[n:]
	}
}

// Zipfian is a precomputed sampler for the Zipf distribution over [0, n).
type Zipfian struct {
	cdf []float64
}

// NewZipf builds the cumulative table for P(k) ∝ (k+1)^(-alpha), k ∈ [0,n).
// It panics if n <= 0 or alpha < 0, which are programming errors.
func NewZipf(n int, alpha float64) *Zipfian {
	if n <= 0 {
		panic("rng: NewZipf requires n > 0")
	}
	if alpha < 0 {
		panic("rng: NewZipf requires alpha >= 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -alpha)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipfian{cdf: cdf}
}

// Draw samples one value in [0, n) using binary search over the CDF.
func (z *Zipfian) Draw(s *Source) int {
	u := s.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
