// Package stats provides the descriptive statistics and result
// containers used by the evaluation harness: sample moments (the
// paper's SD formula is the sample standard deviation of a target's
// consecutive visiting intervals), Welford accumulators for streaming
// aggregation, elementwise aggregation across replicated runs, and the
// Series/Surface containers that mirror the paper's 2-D line plots
// (Fig. 7) and 3-D bar plots (Figs. 8–10).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleSD returns the sample standard deviation (the 1/(n−1)
// normalization used by the paper's SD metric). Slices with fewer
// than two elements yield 0.
func SampleSD(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

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

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice
// or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v outside [0,1]", q))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N    int
	Mean float64
	SD   float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		SD:   SampleSD(xs),
		Min:  Min(xs),
		Max:  Max(xs),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.N, s.Mean, s.SD, s.Min, s.Max)
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

// Accumulator computes running moments with Welford's algorithm plus
// streaming extrema; it is the streaming counterpart of Summarize. The
// zero value is ready to use. Because the update is sequential, two
// accumulators fed the same samples in the same order produce
// bit-identical results — the sweep engine relies on this for
// worker-count-independent output.
type Accumulator struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// Add incorporates x.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x < a.min {
		a.min = x
	}
	if a.n == 1 || x > a.max {
		a.max = x
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// SD returns the running sample standard deviation (0 for n < 2).
func (a *Accumulator) SD() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Min returns the smallest sample seen (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample seen (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean (0 for n < 2); the streaming counterpart of
// the slice-based CI95.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.SD() / math.Sqrt(float64(a.n))
}

// Summary returns the accumulated moments as a Summary.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.Mean(), SD: a.SD(), Min: a.min, Max: a.max}
}

// AccumulatorState is the serializable snapshot of an Accumulator. The
// floating-point moments travel as raw IEEE-754 bits so a
// State→Restore round trip through any text encoding (JSON included)
// is bit-exact — the sweep engine's checkpoint/resume path depends on
// this for byte-identical output — and so non-finite values survive
// encoders that reject NaN and ±Inf literals.
type AccumulatorState struct {
	N    int    `json:"n"`
	Mean uint64 `json:"mean_bits"`
	M2   uint64 `json:"m2_bits"`
	Min  uint64 `json:"min_bits"`
	Max  uint64 `json:"max_bits"`
}

// State snapshots the accumulator.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{
		N:    a.n,
		Mean: math.Float64bits(a.mean),
		M2:   math.Float64bits(a.m2),
		Min:  math.Float64bits(a.min),
		Max:  math.Float64bits(a.max),
	}
}

// Restore overwrites the accumulator with a snapshot taken by State.
// Feeding the restored accumulator the same remaining samples in the
// same order as the original produces bit-identical moments.
func (a *Accumulator) Restore(s AccumulatorState) {
	a.n = s.N
	a.mean = math.Float64frombits(s.Mean)
	a.m2 = math.Float64frombits(s.M2)
	a.min = math.Float64frombits(s.Min)
	a.max = math.Float64frombits(s.Max)
}

// MeanAcross averages replicated runs elementwise: runs[r][k] is the
// k-th value of replication r. Rows may have different lengths; each
// output position averages the rows that reach it. An empty input
// yields nil.
func MeanAcross(runs [][]float64) []float64 {
	maxLen := 0
	for _, r := range runs {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	for k := 0; k < maxLen; k++ {
		var acc Accumulator
		for _, r := range runs {
			if k < len(r) {
				acc.Add(r[k])
			}
		}
		out[k] = acc.Mean()
	}
	return out
}

// Series is a named sequence of (x, y) samples — one curve of a line
// plot such as the paper's Fig. 7.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.X) }

// Surface is a named 2-D grid of z values over the cross product of
// two parameter axes — one surface of a 3-D bar plot such as the
// paper's Figs. 8–10. Z[i][j] corresponds to (Rows[i], Cols[j]).
type Surface struct {
	Name string
	// RowLabel and ColLabel name the two swept parameters.
	RowLabel, ColLabel string
	Rows, Cols         []float64
	Z                  [][]float64
}

// NewSurface allocates a zero-filled surface over the given axes.
func NewSurface(name, rowLabel, colLabel string, rows, cols []float64) *Surface {
	z := make([][]float64, len(rows))
	for i := range z {
		z[i] = make([]float64, len(cols))
	}
	r := make([]float64, len(rows))
	copy(r, rows)
	c := make([]float64, len(cols))
	copy(c, cols)
	return &Surface{
		Name: name, RowLabel: rowLabel, ColLabel: colLabel,
		Rows: r, Cols: c, Z: z,
	}
}

// Set stores z at the cell addressed by row index i and column index
// j.
func (s *Surface) Set(i, j int, z float64) { s.Z[i][j] = z }

// At returns the value at row i, column j.
func (s *Surface) At(i, j int) float64 { return s.Z[i][j] }

// MaxZ returns the largest value on the surface (0 for an empty one).
func (s *Surface) MaxZ() float64 {
	m := 0.0
	first := true
	for _, row := range s.Z {
		for _, z := range row {
			if first || z > m {
				m = z
				first = false
			}
		}
	}
	return m
}

// MeanZ returns the mean of all cells (0 for an empty surface).
func (s *Surface) MeanZ() float64 {
	var acc Accumulator
	for _, row := range s.Z {
		for _, z := range row {
			acc.Add(z)
		}
	}
	return acc.Mean()
}
