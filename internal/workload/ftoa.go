// Shortest float64 rendering for the answer wire format.
//
// appendShortest writes the bytes strconv.AppendFloat(dst, v, 'g', -1,
// 64) writes, for every float64, in about 60% of the time on
// answer-like values: it finds the same decimal — the shortest that
// reads back as v, and among those the closest to v — with Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), three
// 126-by-64-bit products and a comparison or two, where strconv's Ryū
// variant trims the interval's bounds one digit, and one division, at
// a time. Only normal values take this path; ±0, subnormals, NaN and
// ±Inf are handed to strconv.
// TestAppendShortestMatchesStrconv and FuzzAppendShortest hold the two
// renderings byte for byte equal, and TestPow10Table holds the table
// below to its definition.

package workload

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// kMin and kMax bound the decimal exponent k Schubfach picks for a
// normal float64: floor(log10(2^q)) over its binary exponents q in
// [-1074, 971].
const (
	kMin = -324
	kMax = 292
)

// pow10s is the table of powers of ten Schubfach multiplies by, built
// once at package initialisation, so an answer indexes it without a
// call. Entry k-kMin holds the g with (g−1)·2^r ≤ 10^−k < g·2^r,
// r = flog2pow10(−k) − 125, so that 2^125 < g < 2^126, split as
// g = e[0]·2^63 + e[1].
var pow10s = func() (tab [kMax - kMin + 1][2]uint64) {
	low63 := new(big.Int).SetUint64(1<<63 - 1)
	for k := kMin; k <= kMax; k++ {
		// g = floor(10^−k / 2^r) + 1 = floor(num/den) + 1.
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Add(num.Quo(num, den), big.NewInt(1))
		tab[k-kMin] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), g.And(g, low63).Uint64()}
	}
	return tab
}()

// flog10pow2 is floor(log10(2^e)), flog10threeQuartersPow2 is
// floor(log10(3/4·2^e)), and flog2pow10 is floor(log2(10^e)), each
// exact over the exponents a float64 reaches.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// rop returns cp·g·2^−127, g = g1·2^63 + g0, rounded to odd: its floor,
// with the low bit set when the top 63 bits of its fraction are not all
// zero. The table's g exceeds 10^−k·2^−r by at most one; Giulietti's
// paper shows that for every cp Schubfach passes this is still
// cp·10^−k·2^−(r+127) rounded to odd.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const low63 = 1<<63 - 1
	return y1 + z>>63 | (z&low63+low63)>>63
}

// appendShortest appends v as strconv.AppendFloat(dst, v, 'g', -1, 64)
// does.
func appendShortest(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	be := int(b>>52) & 0x7ff
	if be == 0 || be == 0x7ff {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	// |v| = c·2^q.
	f, e := schubfach(b&(1<<52-1)|1<<52, be-1075)
	return appendDecimal(dst, f, e)
}

// schubfach returns the decimal f·10^e that strconv picks for the
// normal float64 c·2^q: the shortest in its rounding interval (both
// ends included when c is even), and among those the closest to it,
// ties to an even f. The interval is half a binary step wide on either
// side, except below a power of two, where the step below is half as
// wide.
func schubfach(c uint64, q int) (f uint64, e int) {
	out := c & 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := flog10pow2(q)
	if c == 1<<52 && q > -1074 {
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10s[k-kMin]
	// vb, vbl and vbr are 4·10^−k times v and its interval's ends; an
	// excluded end is moved inward by one.
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h) + out
	vbr := rop(g[0], g[1], cbr<<h) - out
	s := vb >> 2
	// The interval is narrower than 10^(k+1): if it holds a multiple of
	// 10^(k+1), that one is the shortest.
	sp := s / 10 * 10
	upin, wpin := vbl <= sp<<2, (sp+10)<<2 <= vbr
	if upin != wpin {
		if upin {
			return sp, k
		}
		return sp + 10, k
	}
	// Otherwise the interval holds s·10^k, (s+1)·10^k or both; take the
	// one it holds, or the closer.
	uin, win := vbl <= s<<2, (s+1)<<2 <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return s + 1, k
	}
	if r := vb & 3; r == 3 || r == 2 && s&1 != 0 {
		return s + 1, k
	}
	return s, k
}

// appendDecimal appends f·10^e, 0 < f < 10^17, in strconv's 'g' layout
// for shortest digits: %e (with at least two exponent digits) when the
// decimal exponent is below −4 or at least 6, %f otherwise.
func appendDecimal(dst []byte, f uint64, e int) []byte {
	// f's 17 digits, leading zeros included: a top digit and two
	// words of eight, each rendered by digits8 rather than by a loop of
	// divisions by ten (docs/ARCHITECTURE.md has the measurements).
	var d [17]byte
	hi := f / 1e8
	d[0] = byte(hi/1e8) + '0'
	binary.LittleEndian.PutUint64(d[1:], digits8(hi%1e8)+ascii8)
	binary.LittleEndian.PutUint64(d[9:], digits8(f%1e8)+ascii8)
	i, j := 0, len(d)
	for d[i] == '0' {
		i++
	}
	for d[j-1] == '0' {
		j--
	}
	digs := d[i:j]
	n := len(digs)
	dp := len(d) - i + e // f·10^e = 0.digs × 10^dp
	switch {
	case dp < -3 || dp > 6: // d.ddde±dd
		dst = append(dst, digs[0])
		if n > 1 {
			dst = append(append(dst, '.'), digs[1:]...)
		}
		x, sign := dp-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		dst = append(dst, 'e', sign)
		if x >= 100 {
			dst = append(dst, byte(x/100)+'0')
			x %= 100
		}
		return append(dst, byte(x/10)+'0', byte(x%10)+'0')
	case dp <= 0: // 0.000ddd
		return append(append(dst, "0.000"[:2-dp]...), digs...)
	case dp >= n: // ddd000
		return append(append(dst, digs...), "00000"[:dp-n]...)
	default: // ddd.ddd
		return append(append(append(dst, digs[:dp]...), '.'), digs[dp:]...)
	}
}

// ascii8 turns eight digit values into their ASCII characters.
const ascii8 = 0x3030303030303030

// digits8 returns the eight decimal digits of x < 10^8 as byte values
// 0–9, the most significant in the low byte, splitting x into halves,
// quarters and digits in parallel lanes of one word.
func digits8(x uint64) uint64 {
	w := x/10000 | x%10000<<32                // 4-digit lanes
	q := w * 10486 >> 20 & (0x7f<<32 | 0x7f)  // lane/100, exact below 10^4
	w = q | (w-q*100)<<16                     // 2-digit lanes
	q = w * 103 >> 10 & 0x000f_000f_000f_000f // lane/10, exact below 100
	return q | (w-q*10)<<8
}
