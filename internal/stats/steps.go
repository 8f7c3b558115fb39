package stats

import "math"

// The repeated-addition kernel. While s stays inside one binade
// [2^e, 2^(e+1)), where every float64 is a multiple of u = ulp(s), each
// step of the loop
//
//	for range n { s += c }
//
// adds the same rounded increment q = round(c/u)·u, unless c/u ends in
// exactly one half, a tie that rounds to even and so depends on s. The
// next k steps then land on s + k·q exactly, and the loop costs one
// step per binade it crosses, not one per addition. AddN and StepRuns
// walk the loop that way, one binade segment at a time, bit for bit.

// top is the largest significand of a binade: s/ulp(s) ≤ top for
// every normal s.
const top = 1<<53 - 1

// exactRun reports how the loop s += c goes on from s: each of its
// next k steps adds exactly q, and s + k·q stays in s's binade. k == 0
// means the next step must be taken as it is: s or c is negative,
// zero, subnormal, infinite or NaN, c/u is a tie, or the step leaves
// the binade. q == 0 with the largest k means s absorbs c: no step
// ever changes it.
func exactRun(s, c float64) (q float64, k int64) {
	if !(s >= 0x1p-1022) || !(c >= 0x1p-1022) || s > math.MaxFloat64 || c > math.MaxFloat64 {
		return 0, 0
	}
	u := ulp(s)
	r := c / u // exact: u is a power of two
	if r >= 1<<52 || r-math.Floor(r) == 0.5 {
		return 0, 0
	}
	steps := math.Round(r)
	if steps == 0 {
		return 0, math.MaxInt64
	}
	return steps * u, (top - int64(s/u)) / int64(steps)
}

// ulp returns the spacing of the float64s in the binade of s, a
// positive normal number.
func ulp(s float64) float64 {
	e := math.Float64bits(s) >> 52 // the biased exponent
	if e > 52 {
		return math.Float64frombits((e - 52) << 52)
	}
	return math.Float64frombits(1 << (e - 1)) // subnormal
}

// AddN returns s after the loop `for range n { s += c }`, bit for bit,
// in O(binades) steps rather than n: inside a binade segment it jumps
// k steps at once to s + k·q, which is the chained sum exactly; it takes
// every other step as the loop does.
func AddN(s, c float64, n int) float64 {
	for n > 0 {
		q, k := exactRun(s, c)
		if k == 0 {
			t := s + c
			if math.Float64bits(t) == math.Float64bits(s) {
				return s // a fixed point: no later step changes s either
			}
			s, n = t, n-1
			continue
		}
		j := min(k, int64(n))
		s += float64(float64(j) * q)
		n -= int(j)
	}
	return s
}

// StepRuns calls yield, in order, with the m intervals between the m+1
// values v, v+step, … of the loop `for range m { v += step }`, each the
// difference x' − x a reader of the values computes, grouped in runs of
// equal intervals: the run (iv, base, n) is n intervals of iv whose
// earlier ends are base + i·iv for i < n, each sum exact (all of them
// base when iv is NaN, a fixed point at an infinite value). A binade
// segment is one run, so there are O(binades) of them, and a step the
// segments cannot take is a run of its own. It stops when yield returns
// false.
func StepRuns(v, step float64, m int, yield func(iv, base float64, n int) bool) {
	for m > 0 {
		q, k := exactRun(v, step)
		if k == 0 {
			w, n := v+step, 1
			if math.Float64bits(w) == math.Float64bits(v) {
				n = m // a fixed point: every later interval is w − v too
			}
			if !yield(w-v, v, n) {
				return
			}
			v, m = w, m-n
			continue
		}
		j := int(min(k, int64(m)))
		if !yield(q, v, j) {
			return
		}
		v += float64(float64(j) * q)
		m -= j
	}
}
