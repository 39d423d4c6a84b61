package workload

// appendShortest's contract: the bytes of strconv.AppendFloat(dst, v,
// 'g', -1, 64) for every float64, each rendering short enough for the
// one slices.Grow in AnswerLines.WriteChunk; and the Schubfach table
// and exponent functions it rests on, checked against their
// definitions with math/big.

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// shortestChecker compares appendShortest with strconv over reused
// buffers, so a check allocates nothing.
type shortestChecker struct {
	t         testing.TB
	got, want []byte
}

func (c *shortestChecker) check(v float64) {
	c.got = appendShortest(append(c.got[:0], '>'), v)
	c.want = strconv.AppendFloat(append(c.want[:0], '>'), v, 'g', -1, 64)
	if !bytes.Equal(c.got, c.want) {
		c.t.Fatalf("appendShortest(%#x) = %q, strconv %q", math.Float64bits(v), c.got[1:], c.want[1:])
	}
	if len(c.got)-1 > maxAnswerLine-1 {
		c.t.Fatalf("appendShortest(%#x) = %q, %d bytes: longer than maxAnswerLine-1 = %d",
			math.Float64bits(v), c.got[1:], len(c.got)-1, maxAnswerLine-1)
	}
}

// checkAround checks ±v and both neighbours of each.
func (c *shortestChecker) checkAround(v float64) {
	for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
		c.check(w)
		c.check(-w)
	}
}

// shortestSeeds are the edge classes the equality test walks, for the
// fuzz target's seed corpus.
func shortestSeeds() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1021,
		1, 0x1p52, 0x1p53, 0x1p53 + 2, 0x1p53 - 1, 1 << 20, 0.5, 1.0 / 16,
		1e-5, 1e-4, 1e5, 1e6, 1e22, 1e23, 5e-324, 2.2250738585072014e-308,
		0.1, 0.3, 146.625, 12345.678901234567, -3.75e-12, 9007199254740993,
	}
}

func TestAppendShortestMatchesStrconv(t *testing.T) {
	c := &shortestChecker{t: t}
	for _, v := range shortestSeeds() {
		c.checkAround(v)
	}
	// Every power of two, where a significand of exactly 2^52 has the
	// narrower step below it.
	for e := -1074; e <= 1023; e++ {
		c.checkAround(math.Ldexp(1, e))
	}
	// Every power of ten as ParseFloat reads it.
	for e := -324; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.checkAround(v)
	}
	// The edges of the %e/%f layout.
	for _, v := range []float64{1e-5, 1e-4, 1e5, 1e6} {
		c.checkAround(v)
	}
	// Integers, halves and sixteenths: the %f layout's padding.
	for i := -1 << 20; i <= 1<<20; i++ {
		c.check(float64(i))
		c.check(float64(i) / 2)
		c.check(float64(i) / 16)
	}
	// Around 2^53, where the step between float64s passes 1.
	for i := -1024; i <= 1024; i++ {
		c.check(0x1p53 + float64(i))
		c.check(-0x1p53 - float64(i)/4)
	}
	r := rand.New(rand.NewPCG(30, 1))
	for range 1_000_000 {
		c.check(math.Float64frombits(r.Uint64()))
	}
	for range 1_000_000 {
		c.check(answerLike(r))
	}
}

// answerLike draws a value shaped like a workload answer: a count
// under 10^6 plus Laplace noise of a scale between 1 and 1000, so that
// most renderings carry 16 or 17 significant digits in the %f layout.
func answerLike(r *rand.Rand) float64 {
	noise := r.ExpFloat64() * math.Pow(10, 3*r.Float64())
	if r.IntN(2) == 0 {
		noise = -noise
	}
	return float64(r.IntN(1_000_000)) + noise
}

// TestPow10Table checks each table entry against its definition,
// (g−1)·2^r ≤ 10^−k < g·2^r with 2^125 < g < 2^126, by
// cross-multiplication, and the three exponent functions against
// theirs over the exponents a float64 reaches.
func TestPow10Table(t *testing.T) {
	pow := func(base, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(base), big.NewInt(e), nil) }
	shift := func(x *big.Int, n int) *big.Int { return new(big.Int).Lsh(x, uint(n)) }
	// 10^e = num/den and 2^e = num/den for e of either sign.
	pow10 := func(e int) (num, den *big.Int) {
		if e < 0 {
			return big.NewInt(1), pow(10, int64(-e))
		}
		return pow(10, int64(e)), big.NewInt(1)
	}
	pow2 := func(e int) (num, den *big.Int) {
		if e < 0 {
			return big.NewInt(1), shift(big.NewInt(1), -e)
		}
		return shift(big.NewInt(1), e), big.NewInt(1)
	}
	// le reports a/b ≤ c/d, lt a/b < c/d.
	le := func(a, b, c, d *big.Int) bool { return new(big.Int).Mul(a, d).Cmp(new(big.Int).Mul(c, b)) <= 0 }
	lt := func(a, b, c, d *big.Int) bool { return new(big.Int).Mul(a, d).Cmp(new(big.Int).Mul(c, b)) < 0 }
	mul := func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }

	tab := pow10s()
	lo, hi := shift(big.NewInt(1), 125), shift(big.NewInt(1), 126)
	for k := kMin; k <= kMax; k++ {
		e := tab[k-kMin]
		if e[0]>>63 != 0 || e[1]>>63 != 0 {
			t.Fatalf("k=%d: halves %#x, %#x exceed 63 bits", k, e[0], e[1])
		}
		g := new(big.Int).Add(shift(new(big.Int).SetUint64(e[0]), 63), new(big.Int).SetUint64(e[1]))
		if g.Cmp(lo) <= 0 || g.Cmp(hi) >= 0 {
			t.Fatalf("k=%d: g = %v outside (2^125, 2^126)", k, g)
		}
		gm1 := new(big.Int).Sub(g, big.NewInt(1))
		tn, td := pow10(-k)
		rn, rd := pow2(flog2pow10(-k) - 125)
		if !le(mul(gm1, rn), rd, tn, td) || !lt(tn, td, mul(g, rn), rd) {
			t.Fatalf("k=%d: g = %v breaks (g−1)·2^r ≤ 10^−k < g·2^r", k, g)
		}
	}

	// 10^k ≤ x < 10^(k+1) for x = num/den.
	inDecade := func(num, den *big.Int, k int) bool {
		an, ad := pow10(k)
		bn, bd := pow10(k + 1)
		return le(an, ad, num, den) && lt(num, den, bn, bd)
	}
	for q := -1074; q <= 971; q++ {
		n, d := pow2(q)
		if k := flog10pow2(q); !inDecade(n, d, k) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		if k := flog10threeQuartersPow2(q); !inDecade(mul(n, big.NewInt(3)), mul(d, big.NewInt(4)), k) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -kMax; e <= -kMin; e++ {
		n, d := pow10(e)
		r := flog2pow10(e)
		an, ad := pow2(r)
		bn, bd := pow2(r + 1)
		if !le(an, ad, n, d) || !lt(n, d, bn, bd) {
			t.Fatalf("flog2pow10(%d) = %d", e, r)
		}
	}
}
