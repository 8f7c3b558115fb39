package stats

import (
	"math"
	"testing"
)

// addLoop is AddN's oracle: the loop itself, keeping every value.
func addLoop(s, c float64, n int) []float64 {
	vs := make([]float64, 0, n+1)
	vs = append(vs, s)
	for range n {
		s += c
		vs = append(vs, s)
	}
	return vs
}

// checkAddN fails unless AddN(s, c, n) is the loop's sum bit for bit,
// and StepRuns yields the loop's intervals in order, each run's earlier
// ends base + i·iv equal to the loop's values, with as many intervals
// as the loop has. It returns how many runs StepRuns yielded.
func checkAddN(t *testing.T, s, c float64, n int) int {
	t.Helper()
	vs := addLoop(s, c, n)
	if got, want := AddN(s, c, n), vs[n]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AddN(%v, %v, %d) = %v (%#x), the loop %v (%#x)", s, c, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	i, runs := 0, 0
	StepRuns(s, c, n, func(iv, base float64, k int) bool {
		runs++
		if k < 1 || i+k > n {
			t.Fatalf("StepRuns(%v, %v, %d): run of %d at interval %d", s, c, n, k, i)
		}
		for j := range k {
			x, y := vs[i+j], vs[i+j+1]
			e := base
			if j > 0 && !math.IsNaN(iv) {
				e += float64(float64(j) * iv)
			}
			if math.Float64bits(e) != math.Float64bits(x) {
				t.Fatalf("StepRuns(%v, %v, %d): interval %d's earlier end %v, the loop's %v", s, c, n, i+j, e, x)
			}
			if d := y - x; math.Float64bits(d) != math.Float64bits(iv) {
				t.Fatalf("StepRuns(%v, %v, %d): interval %d is %v, the loop's %v", s, c, n, i+j, iv, d)
			}
		}
		i += k
		return true
	})
	if i != n {
		t.Fatalf("StepRuns(%v, %v, %d) yielded %d intervals", s, c, n, i)
	}
	if n > 0 {
		stopped := 0
		StepRuns(s, c, n, func(float64, float64, int) bool { stopped++; return false })
		if stopped != 1 {
			t.Fatalf("StepRuns(%v, %v, %d) went on after yield returned false", s, c, n)
		}
	}
	return runs
}

// addNCases are the kernel's edge cases, FuzzAddN's seeds: ties,
// binade tops, absorption, zeros, subnormals, negative and non-finite
// values, and long sums of visit intervals.
var addNCases = []struct {
	s, c float64
	n    uint32
}{
	{0, 1, 1 << 17},                      // integers through 17 binades
	{0, 0.1, 1_000_000},                  // a non-dyadic step, many binades
	{1, 0x1p-53, 10},                     // c/u = 0.5: a tie, rounds to even, absorbed
	{1 + 0x1p-52, 0x1p-53, 10},           // a tie from an odd significand
	{1, 3 * 0x1p-53, 1000},               // c/u = 1.5: ties every step
	{2 - 0x1p-52, 0x1p-52, 5},            // at the binade top
	{2 - 10*0x1p-52, 3.3 * 0x1p-52, 100}, // just below it, a rounded step
	{131070.2, 0.3, 100_000},             // the parked mule's times across 2^17
	{1e17, 1, 1000},                      // absorbed: 1 < ulp/2
	{1, 0, 100},                          // a zero step
	{0, 0, 100},                          // zero on zero
	{5e-324, 5e-324, 1000},               // subnormals
	{1, 5e-324, 1000},                    // a subnormal step, absorbed
	{0x1p-1022, 0x1p-1022, 1000},         // the smallest normals
	{-10, 0.3, 1000},                     // a negative start
	{10, -0.3, 1000},                     // a negative step
	{math.Inf(1), 1, 100},                // non-finite
	{math.Inf(1), math.Inf(-1), 100},     // Inf − Inf
	{math.NaN(), 1, 100},                 // NaN
	{1, math.MaxFloat64, 3},              // overflow to Inf
	{math.MaxFloat64 / 2, 1e300, 100},    // near the top of the range
}

// FuzzAddN holds AddN and StepRuns to the plain loop, bit for bit, for
// any start and step and up to 10⁶ steps.
func FuzzAddN(f *testing.F) {
	for _, tc := range addNCases {
		f.Add(tc.s, tc.c, tc.n)
	}
	f.Fuzz(func(t *testing.T, s, c float64, n uint32) {
		checkAddN(t, s, c, int(n%1_000_001))
	})
}

// TestStepRunsPerBinade: a sum of a million steps through 17 binades,
// or a parked mule's 10⁵ visit times, takes a few runs per binade.
func TestStepRunsPerBinade(t *testing.T) {
	if runs := checkAddN(t, 0, 0.1, 1_000_000); runs > 60 {
		t.Fatalf("StepRuns(0, 0.1, 10⁶) took %d runs", runs)
	}
	if runs := checkAddN(t, 1000.5, 1, 100_000); runs > 20 {
		t.Fatalf("StepRuns(1000.5, 1, 10⁵) took %d runs", runs)
	}
}
