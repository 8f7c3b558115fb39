package tour_test

import (
	"testing"

	"tctp/internal/geom"
	"tctp/internal/optimal"
	"tctp/internal/tour"
	"tctp/internal/xrand"
)

// canonical returns the tour reflected to HeldKarp's output direction:
// second element smaller than last.
func canonical(t tour.Tour) tour.Tour {
	out := append(tour.Tour(nil), t...)
	if len(out) >= 3 && out[1] > out[len(out)-1] {
		for i, j := 1, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// Held-Karp must reproduce the brute-force permutation optimum
// bit-exactly: same canonical permutation, same tour.Length bits.
// Random coordinates make the optimum unique up to direction with
// probability 1, and both solvers root the cycle at index 0. The test
// lives here, as an external test, because the brute-force oracle is
// test code of this package.
func TestHeldKarpMatchesBruteForce(t *testing.T) {
	src := xrand.New(41)
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 20; trial++ {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
			}
			ht, hl := optimal.HeldKarp(pts)
			if err := tour.Validate(ht, n); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			bt := canonical(tour.BruteForce(pts))
			for i := range bt {
				if ht[i] != bt[i] {
					t.Fatalf("n=%d trial %d: HeldKarp %v != brute %v", n, trial, ht, bt)
				}
			}
			if bl := tour.Length(pts, bt); hl != bl {
				t.Fatalf("n=%d trial %d: length %v != brute %v", n, trial, hl, bl)
			}
		}
	}
}
