package stats

import "math"

// Min, Max and CI95 are the batch oracles the Accumulator's streaming
// extrema and confidence interval are checked against.

// Min returns the smallest element; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean of xs (1.96·sd/√n). Samples with fewer than
// two elements yield 0.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * SampleSD(xs) / math.Sqrt(float64(len(xs)))
}
