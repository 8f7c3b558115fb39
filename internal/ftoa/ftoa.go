// Package ftoa renders float64 values in fixed-point notation with a
// few decimals, byte for byte as strconv does, without strconv's
// multiprecision path.
//
// strconv.AppendFloat(dst, v, 'f', prec, 64) always formats through
// its big-decimal fallback, because its fast fixed-precision
// algorithms count significant digits, not decimals. AppendFixed
// instead rounds |v|·10^prec to an integer directly: v is m·2^e with
// a 53-bit integer m, so |v|·10^prec is the 128-bit product m·10^prec
// shifted right by -e bits, and the bits shifted out decide the
// rounding, half to even, as strconv rounds an exact tie. The result
// is exact, not an approximation.
//
// The integer path covers normal values with 2^-75 ≤ |v| < 2^50 and
// precisions 0 to 4: every metric a sweep or an experiment renders
// (seconds, metres, joules, ratios) lies there or is exactly 0. Below
// 2^50 the rounded integer fits in 64 bits at precision 4. Everything
// else, 0, subnormals, NaN, ±Inf, magnitudes from 2^50 up and other
// precisions, goes to strconv, so the output always equals strconv's.
package ftoa

import (
	"math"
	"math/bits"
	"strconv"
)

// maxPrec is the largest precision the integer path renders.
const maxPrec = 4

// The integer path's range of binary exponents e, for v = m·2^e with
// 2^52 ≤ m < 2^53: minExp keeps the shift below 128 bits, maxExp keeps
// |v| < 2^50 and so the rounded integer within 64 bits.
const (
	minExp = -127
	maxExp = -3
)

var pow10 = [maxPrec + 1]uint64{1, 10, 100, 1000, 10000}

// AppendFixed appends v formatted with prec decimals to dst and
// returns the extended buffer: exactly what
// strconv.AppendFloat(dst, v, 'f', prec, 64) returns.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	b := math.Float64bits(v)
	// The biased exponents of 0, subnormals, NaN and ±Inf (0 and
	// 0x7ff) all fall outside [minExp, maxExp].
	e := int(b>>52)&0x7ff - 1075
	if prec < 0 || prec > maxPrec || e < minExp || e > maxExp {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	hi, lo := bits.Mul64(b&(1<<52-1)|1<<52, pow10[prec])
	s := uint(-e)
	n := shr(hi, lo, s)
	// Round up past the half, and at the half exactly when n is odd.
	if shr(hi, lo, s-1)&1 == 1 && (n&1 == 1 || !lowZero(hi, lo, s-1)) {
		n++
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	p := pow10[prec]
	dst = strconv.AppendUint(dst, n/p, 10)
	if prec == 0 {
		return dst
	}
	var frac [maxPrec + 1]byte
	frac[0] = '.'
	for i, f := prec, n%p; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(dst, frac[:prec+1]...)
}

// shr returns the low 64 bits of the 128-bit hi:lo shifted right by
// s < 128 bits.
func shr(hi, lo uint64, s uint) uint64 {
	if s >= 64 {
		return hi >> (s - 64)
	}
	return lo>>s | hi<<(64-s)
}

// lowZero reports whether the low k < 128 bits of hi:lo are all zero.
func lowZero(hi, lo uint64, k uint) bool {
	if k >= 64 {
		return lo == 0 && hi<<(128-k) == 0
	}
	return lo<<(64-k) == 0
}
