package ftoa

import (
	"math"
	"strconv"
	"testing"

	"tctp/internal/xrand"
)

// check fails t unless AppendFixed, appending to a non-empty buffer,
// returns what strconv does.
func check(t *testing.T, v float64, prec int) string {
	t.Helper()
	want := strconv.FormatFloat(v, 'f', prec, 64)
	got := AppendFixed([]byte("x,"), v, prec)
	if string(got) != "x,"+want {
		t.Fatalf("AppendFixed(%v [%#x], %d) = %q, strconv %q", v, math.Float64bits(v), prec, got[2:], want)
	}
	return want
}

// TestAppendFixedCases pins exact ties, which round half to even, and
// the edges of the integer path's range.
func TestAppendFixedCases(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	for _, c := range []struct {
		v    float64
		prec int
		want string // "" leaves the bytes to strconv alone
	}{
		// Exact ties: |v|·10^prec ends in exactly one half.
		{0.0625, 3, "0.062"},
		{0.1875, 3, "0.188"},
		{-0.0625, 3, "-0.062"},
		{2.5, 0, "2"},
		{3.5, 0, "4"},
		{0.5, 0, "0"},
		{-0.5, 0, "-0"},
		{0.25, 1, "0.2"},
		{0.75, 1, "0.8"},
		{0.125, 2, "0.12"},
		{0.375, 2, "0.38"},
		{0.03125, 4, "0.0312"},
		{0.09375, 4, "0.0938"},
		{1e6 + 0.0625, 3, "1000000.062"},
		// Just off a tie: the sticky bits decide.
		{math.Nextafter(0.0625, 1), 3, "0.063"},
		{below(0.1875), 3, "0.187"},
		// Signs, carries and zero padding.
		{-1e-4, 3, "-0.000"},
		{0.9999, 3, "1.000"},
		{9.99951, 3, "10.000"},
		{12.0001, 4, "12.0001"},
		{1234.5678, 0, "1235"},
		// The integer path's edges: 2^50 and 2^-75 are the first values
		// outside and inside it, their neighbours the last inside and
		// outside.
		{1 << 50, 4, "1125899906842624.0000"},
		{below(1 << 50), 4, ""},
		{below(1 << 50), 0, ""},
		{0x1p-75, 4, "0.0000"},
		{-0x1p-75, 3, "-0.000"},
		{below(0x1p-75), 4, "0.0000"},
		// strconv's own cases.
		{0, 3, "0.000"},
		{math.Copysign(0, -1), 3, "-0.000"},
		{5e-324, 4, "0.0000"},
		{-math.SmallestNonzeroFloat64, 0, "-0"},
		{math.MaxFloat64, 0, ""},
		{1 << 53, 3, "9007199254740992.000"},
		{math.NaN(), 3, "NaN"},
		{math.Inf(1), 3, "+Inf"},
		{math.Inf(-1), 2, "-Inf"},
		// Precisions outside 0–4 go to strconv.
		{0.0625, 5, "0.06250"},
		{0.0625, -1, "0.0625"},
	} {
		got := check(t, c.v, c.prec)
		if c.want != "" && got != c.want {
			t.Errorf("%v at %d: %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}

// TestAppendFixedRandom compares with strconv over random bit patterns
// inside the integer path's range, every exact tie (2j+1)/2^(prec+1)
// near them, and random values of the magnitudes a sweep emits.
func TestAppendFixedRandom(t *testing.T) {
	src := xrand.New(7)
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		prec := i % (maxPrec + 1)
		e := uint64(src.Intn(maxExp-minExp+1) + minExp + 1075)
		b := src.Uint64()&(1<<63|1<<52-1) | e<<52
		check(t, math.Float64frombits(b), prec)
		j := src.Uint64() >> (14 + src.Intn(50))
		check(t, float64(2*j+1)/float64(uint64(2)<<prec), prec)
		check(t, src.Float64()*math.Pow(10, float64(src.Intn(9)-3)), prec)
	}
}

// FuzzAppendFixed compares with strconv over arbitrary bit patterns at
// precisions 0 to 4. Its seed corpus holds exact ties and the edges of
// the integer path's range.
func FuzzAppendFixed(f *testing.F) {
	f.Fuzz(func(t *testing.T, b uint64, prec uint8) {
		check(t, math.Float64frombits(b), int(prec%(maxPrec+1)))
	})
}
