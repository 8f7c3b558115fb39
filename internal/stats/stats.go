// Package stats provides the descriptive statistics and result
// containers used by the evaluation harness: sample moments (the
// paper's SD formula is the sample standard deviation of a target's
// consecutive visiting intervals), Welford accumulators for streaming
// aggregation, and the Series/Surface containers that mirror the
// paper's 2-D line plots (Fig. 7) and 3-D bar plots (Figs. 8–10).
package stats

import "math"

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
		s += float64(d * d) // rounded, never fused into the add
	}
	return math.Sqrt(s / float64(n-1))
}

// Accumulator computes running moments with Welford's algorithm plus
// streaming extrema; it is the streaming counterpart of Mean and
// SampleSD. The zero value is ready to use. Because the update is
// sequential, two accumulators fed the same samples in the same order
// produce bit-identical results — the sweep engine relies on this for
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
	a.m2 += float64(d * (x - a.mean)) // rounded, never fused into the add
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
// interval for the mean, 1.96·sd/√n (0 for n < 2).
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.SD() / math.Sqrt(float64(a.n))
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
