package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); !almost(m, 2.5) {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestSampleSD(t *testing.T) {
	// Known value: sd of {2,4,4,4,5,5,7,9} with n−1 norm is ≈2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if sd := SampleSD(xs); math.Abs(sd-2.13808993529939) > 1e-9 {
		t.Fatalf("SampleSD = %v", sd)
	}
	if sd := SampleSD([]float64{5}); sd != 0 {
		t.Fatalf("SampleSD singleton = %v", sd)
	}
	if sd := SampleSD(nil); sd != 0 {
		t.Fatalf("SampleSD nil = %v", sd)
	}
	if sd := SampleSD([]float64{3, 3, 3, 3}); !almost(sd, 0) {
		t.Fatalf("SampleSD constant = %v", sd)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	for _, f := range []func([]float64) float64{Min, Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("empty input did not panic")
				}
			}()
			f(nil)
		}()
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); !almost(q, 1) {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); !almost(q, 5) {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !almost(q, 3) {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0.25); !almost(q, 2) {
		t.Fatalf("q25 = %v", q)
	}
	// Interpolation between order statistics.
	if q := Quantile([]float64{0, 10}, 0.5); !almost(q, 5) {
		t.Fatalf("interpolated median = %v", q)
	}
	if q := Quantile([]float64{42}, 0.9); !almost(q, 42) {
		t.Fatalf("singleton quantile = %v", q)
	}
	// Input must not be reordered.
	in := []float64{5, 1, 3}
	Quantile(in, 0.5)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatal("Quantile reordered input")
	}
}

func TestQuantilePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty did not panic")
			}
		}()
		Quantile(nil, 0.5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("q>1 did not panic")
			}
		}()
		Quantile([]float64{1}, 1.5)
	}()
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || !almost(s.Min, 1) || !almost(s.Max, 3) {
		t.Fatalf("Summary = %+v", s)
	}
	if !almost(s.SD, 1) {
		t.Fatalf("Summary.SD = %v", s.SD)
	}
	z := Summarize(nil)
	if z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty Summary = %+v", z)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 12, 8, 11, 9}
	want := 1.96 * SampleSD(xs) / math.Sqrt(5)
	if ci := CI95(xs); !almost(ci, want) {
		t.Fatalf("CI95 = %v, want %v", ci, want)
	}
	if ci := CI95([]float64{1}); ci != 0 {
		t.Fatalf("CI95 singleton = %v", ci)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{3.1, -2.7, 8.8, 0, 4.4, 1.2}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != len(xs) {
		t.Fatalf("N = %d", a.N())
	}
	if !almost(a.Mean(), Mean(xs)) {
		t.Fatalf("Accumulator mean %v vs batch %v", a.Mean(), Mean(xs))
	}
	if !almost(a.SD(), SampleSD(xs)) {
		t.Fatalf("Accumulator sd %v vs batch %v", a.SD(), SampleSD(xs))
	}
	if !almost(a.Min(), Min(xs)) || !almost(a.Max(), Max(xs)) {
		t.Fatalf("Accumulator extrema %v..%v vs batch %v..%v",
			a.Min(), a.Max(), Min(xs), Max(xs))
	}
	if !almost(a.CI95(), CI95(xs)) {
		t.Fatalf("Accumulator CI95 %v vs batch %v", a.CI95(), CI95(xs))
	}
	want := Summarize(xs)
	got := a.Summary()
	if got.N != want.N || !almost(got.Mean, want.Mean) || !almost(got.SD, want.SD) ||
		!almost(got.Min, want.Min) || !almost(got.Max, want.Max) {
		t.Fatalf("Summary %v vs batch %v", got, want)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.SD() != 0 || a.N() != 0 ||
		a.Min() != 0 || a.Max() != 0 || a.CI95() != 0 {
		t.Fatal("zero accumulator not zero")
	}
	a.Add(5)
	if a.SD() != 0 || a.CI95() != 0 {
		t.Fatal("single-sample spread not zero")
	}
	if a.Min() != 5 || a.Max() != 5 {
		t.Fatalf("single-sample extrema %v..%v", a.Min(), a.Max())
	}
}

// Property: accumulator agrees with batch formulas on random data.
func TestAccumulatorProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		return math.Abs(a.Mean()-Mean(xs)) < 1e-6 &&
			math.Abs(a.SD()-SampleSD(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAcross(t *testing.T) {
	runs := [][]float64{
		{1, 2, 3},
		{3, 4, 5},
	}
	got := MeanAcross(runs)
	want := []float64{2, 3, 4}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("MeanAcross = %v", got)
		}
	}
}

func TestMeanAcrossRagged(t *testing.T) {
	runs := [][]float64{
		{1, 2, 3},
		{3},
	}
	got := MeanAcross(runs)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if !almost(got[0], 2) || !almost(got[1], 2) || !almost(got[2], 3) {
		t.Fatalf("MeanAcross ragged = %v", got)
	}
	if MeanAcross(nil) != nil {
		t.Fatal("MeanAcross(nil) != nil")
	}
	if MeanAcross([][]float64{{}, {}}) != nil {
		t.Fatal("MeanAcross of empties != nil")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "tctp"
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.X[1] != 2 || s.Y[1] != 20 {
		t.Fatalf("sample = (%v, %v)", s.X[1], s.Y[1])
	}
}

func TestSurface(t *testing.T) {
	s := NewSurface("sd", "targets", "mules", []float64{10, 20}, []float64{2, 4, 6})
	if len(s.Z) != 2 || len(s.Z[0]) != 3 {
		t.Fatalf("shape = %dx%d", len(s.Z), len(s.Z[0]))
	}
	s.Set(1, 2, 7.5)
	if s.At(1, 2) != 7.5 {
		t.Fatalf("At = %v", s.At(1, 2))
	}
	if !almost(s.MaxZ(), 7.5) {
		t.Fatalf("MaxZ = %v", s.MaxZ())
	}
	if !almost(s.MeanZ(), 7.5/6) {
		t.Fatalf("MeanZ = %v", s.MeanZ())
	}
	// Axes are copied.
	rows := []float64{1, 2}
	s2 := NewSurface("x", "a", "b", rows, rows)
	rows[0] = 99
	if s2.Rows[0] == 99 {
		t.Fatal("NewSurface shares axis slice")
	}
}

func TestSurfaceEmpty(t *testing.T) {
	s := NewSurface("e", "a", "b", nil, nil)
	if s.MaxZ() != 0 || s.MeanZ() != 0 {
		t.Fatal("empty surface stats not zero")
	}
}

func TestAccumulatorStateRoundTrip(t *testing.T) {
	// Split a sample stream at every prefix: folding the suffix into a
	// restored accumulator must be bit-identical to folding it all into
	// one — the checkpoint/resume contract.
	xs := []float64{3.25, -1.5, 0.1, 7.75, 2.2, -0.3, 5.5}
	var whole Accumulator
	for _, x := range xs {
		whole.Add(x)
	}
	for cut := 0; cut <= len(xs); cut++ {
		var prefix Accumulator
		for _, x := range xs[:cut] {
			prefix.Add(x)
		}
		var resumed Accumulator
		resumed.Restore(prefix.State())
		for _, x := range xs[cut:] {
			resumed.Add(x)
		}
		if resumed.State() != whole.State() {
			t.Fatalf("cut %d: resumed state %+v != whole %+v", cut, resumed.State(), whole.State())
		}
		if resumed.Mean() != whole.Mean() || resumed.SD() != whole.SD() ||
			resumed.CI95() != whole.CI95() {
			t.Fatalf("cut %d: resumed moments differ", cut)
		}
	}
}

func TestAccumulatorStateNonFinite(t *testing.T) {
	// NaN and ±Inf survive the bit-level snapshot (JSON could not carry
	// them as float literals).
	var a Accumulator
	a.Add(math.NaN())
	a.Add(math.Inf(1))
	var b Accumulator
	b.Restore(a.State())
	if b.N() != 2 || b.State() != a.State() {
		t.Fatalf("non-finite state did not round-trip: %+v vs %+v", a.State(), b.State())
	}
	if !math.IsNaN(b.Mean()) {
		t.Fatalf("restored mean %v, want NaN", b.Mean())
	}
}
