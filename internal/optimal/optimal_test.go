package optimal

import (
	"math"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/tour"
	"tctp/internal/xrand"
)

func randPts(n int, src *xrand.Source) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	return pts
}

// The branch-and-bound DCDT search is an independent exact solver; it
// must agree with Held-Karp on the optimal cycle length at every size
// both can handle, and its DCDT must equal length/(mules·speed).
func TestMinDCDTMatchesHeldKarp(t *testing.T) {
	src := xrand.New(42)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 5; trial++ {
			pts := randPts(n, src)
			_, hl := HeldKarp(pts)
			bt, dcdt := MinDCDT(pts, 4, 2)
			if err := tour.Validate(bt, n); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			bl := tour.Length(pts, bt)
			if bl != hl {
				t.Fatalf("n=%d trial %d: B&B length %v, Held-Karp %v", n, trial, bl, hl)
			}
			if want := bl / (4 * 2); dcdt != want {
				t.Fatalf("n=%d trial %d: DCDT %v, want %v", n, trial, dcdt, want)
			}
		}
	}
}

func TestMinDCDTDegenerateFleet(t *testing.T) {
	pts := randPts(6, xrand.New(7))
	if _, d := MinDCDT(pts, 0, 2); d != 0 {
		t.Fatalf("0 mules: DCDT %v", d)
	}
	if _, d := MinDCDT(pts, 2, 0); d != 0 {
		t.Fatalf("0 speed: DCDT %v", d)
	}
}

// The bound sandwich on random instances:
// hull perimeter ≤ MST-bound ∨ hull ≤ L* ≤ 2·MST. At exact sizes L*
// comes from Held-Karp; the sandwich proves both lower bounds sound
// and the MST not degenerately loose.
func TestBoundSandwich(t *testing.T) {
	src := xrand.New(43)
	const eps = 1e-9 // hull/MST and DP sum in different orders
	for n := 2; n <= 12; n++ {
		for trial := 0; trial < 20; trial++ {
			pts := randPts(n, src)
			_, opt := HeldKarp(pts)
			h, m := HullBound(pts), MST(pts)
			if h > opt*(1+eps) {
				t.Fatalf("n=%d trial %d: hull %v > optimal %v", n, trial, h, opt)
			}
			if m > opt*(1+eps) {
				t.Fatalf("n=%d trial %d: MST %v > optimal %v", n, trial, m, opt)
			}
			if opt > 2*m*(1+eps) {
				t.Fatalf("n=%d trial %d: optimal %v > 2·MST %v", n, trial, opt, 2*m)
			}
		}
	}
}

// The hull perimeter must also bound every *heuristic* circuit, and
// the hull of a degenerate (collinear) instance must still bound
// correctly — the perimeter degenerates to twice the span, which is
// exactly the optimal tour.
func TestHullBoundCollinear(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(4, 0), geom.Pt(7, 0)}
	_, opt := HeldKarp(pts)
	if h := HullBound(pts); math.Abs(h-20) > 1e-12 || math.Abs(opt-20) > 1e-12 {
		t.Fatalf("collinear: hull %v, optimal %v, want 20", h, opt)
	}
}

func TestHullPerimeterUnderContainment(t *testing.T) {
	// Perimeter of the hull of a subset never exceeds the superset's
	// tour: any closed circuit through all points is a closed curve
	// enclosing the hull.
	src := xrand.New(44)
	for trial := 0; trial < 30; trial++ {
		pts := randPts(10, src)
		h := HullBound(pts)
		for _, mk := range []func() tour.Tour{
			func() tour.Tour { return tour.NearestNeighbor(pts, 0) },
			func() tour.Tour { return tour.Tour(src.Perm(len(pts))) },
		} {
			if l := tour.Length(pts, mk()); h > l*(1+1e-9) {
				t.Fatalf("trial %d: hull %v exceeds circuit %v", trial, h, l)
			}
		}
	}
}

func TestMSTEdgeCases(t *testing.T) {
	if m := MST(nil); m != 0 {
		t.Fatalf("empty MST %v", m)
	}
	if m := MST([]geom.Point{geom.Pt(1, 1)}); m != 0 {
		t.Fatalf("single-point MST %v", m)
	}
	if m := MST([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}); m != 5 {
		t.Fatalf("two-point MST %v, want 5", m)
	}
	// Unit square: MST weight 3 (three sides), tour 4.
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	if m := MST(sq); math.Abs(m-3) > 1e-12 {
		t.Fatalf("square MST %v, want 3", m)
	}
}

func TestTourBoundTiers(t *testing.T) {
	src := xrand.New(46)
	small := randPts(8, src)
	_, opt := HeldKarp(small)
	if b := TourBound(small); !b.Exact || b.Value != opt {
		t.Fatalf("small bound %+v, want exact %v", b, opt)
	}
	large := randPts(ExactThreshold+5, src)
	b := TourBound(large)
	if b.Exact {
		t.Fatalf("large instance claimed exact")
	}
	h, m := HullBound(large), MST(large)
	if want := math.Max(h, m); b.Value != want {
		t.Fatalf("large bound %v, want max(%v, %v)", b.Value, h, m)
	}
	if b := TourBound(nil); b.Value != 0 || !b.Exact {
		t.Fatalf("empty bound %+v", b)
	}
}

func TestIntervalBound(t *testing.T) {
	if v := IntervalBound(800, 1, 8); v != 100 {
		t.Fatalf("IntervalBound %v, want 100", v)
	}
	if v := IntervalBound(800, 4, 8); v != 25 {
		t.Fatalf("weighted IntervalBound %v, want 25", v)
	}
	if v := IntervalBound(800, 0, 8); v != 0 {
		t.Fatalf("zero-weight IntervalBound %v", v)
	}
	if v := IntervalBound(800, 1, 0); v != 0 {
		t.Fatalf("zero-speed IntervalBound %v", v)
	}
}

func TestHeldKarpPanicsAboveCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic above MaxExact")
		}
	}()
	HeldKarp(randPts(MaxExact+1, xrand.New(1)))
}
