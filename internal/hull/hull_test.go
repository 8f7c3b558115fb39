package hull

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

func square() []geom.Point {
	return []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
		geom.Pt(5, 5), geom.Pt(3, 7), geom.Pt(8, 2), // interior
	}
}

func TestConvexSquare(t *testing.T) {
	pts := square()
	h := at(pts, Convex(pts))
	if len(h) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(h), h)
	}
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	for i, p := range want {
		if !h[i].Eq(p) {
			t.Fatalf("vertex %d = %v, want %v (hull %v)", i, h[i], p, h)
		}
	}
}

func TestConvexSmallInputs(t *testing.T) {
	if h := Convex(nil); len(h) != 0 {
		t.Fatalf("empty input: %v", h)
	}
	one := []geom.Point{geom.Pt(1, 2)}
	if h := Convex(one); len(h) != 1 || h[0] != 0 {
		t.Fatalf("single input: %v", h)
	}
	two := []geom.Point{geom.Pt(4, 4), geom.Pt(1, 2)}
	h := Convex(two)
	if len(h) != 2 {
		t.Fatalf("two points: %v", h)
	}
	dup := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}
	if h := Convex(dup); len(h) != 1 || h[0] != 0 {
		t.Fatalf("duplicates: %v", h)
	}
}

func TestConvexCollinear(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}
	h := Convex(pts)
	// All points collinear: hull degenerates. Accept the two extreme
	// points (any interior collinear vertices must be dropped).
	if len(h) > 2 {
		t.Fatalf("collinear hull has %d vertices: %v", len(h), h)
	}
}

func TestConvexIsCCW(t *testing.T) {
	pts := square()
	h := at(pts, Convex(pts))
	for i := range h {
		a, b, c := h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]
		if geom.Orient(a, b, c) != geom.Counterclockwise {
			t.Fatalf("hull not strictly CCW at vertex %d", i)
		}
	}
}

func TestContainsPoint(t *testing.T) {
	pts := square()
	h := at(pts, Convex(pts))
	if !containsPoint(h, geom.Pt(5, 5)) {
		t.Fatal("interior point rejected")
	}
	if !containsPoint(h, geom.Pt(0, 0)) {
		t.Fatal("vertex rejected")
	}
	if !containsPoint(h, geom.Pt(5, 0)) {
		t.Fatal("boundary point rejected")
	}
	if containsPoint(h, geom.Pt(11, 5)) {
		t.Fatal("exterior point accepted")
	}
	if containsPoint(nil, geom.Pt(0, 0)) {
		t.Fatal("empty hull contains nothing")
	}
	if !containsPoint([]geom.Point{geom.Pt(1, 1)}, geom.Pt(1, 1)) {
		t.Fatal("degenerate single-point hull")
	}
	seg := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	if !containsPoint(seg, geom.Pt(5, 0)) {
		t.Fatal("degenerate segment hull")
	}
}

func TestPerimeterAndArea(t *testing.T) {
	pts := square()
	if p := geom.CycleLen(at(pts, Convex(pts))); math.Abs(p-40) > 1e-9 {
		t.Fatalf("perimeter = %v, want 40", p)
	}
}

func randomPoints(src *xrand.Source, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	return pts
}

// TestHullContainsAllInputs is the core hull invariant: every input
// point is inside (or on) the computed hull.
func TestHullContainsAllInputs(t *testing.T) {
	src := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(src, 3+src.Intn(60))
		h := at(pts, Convex(pts))
		for _, p := range pts {
			if !containsPoint(h, p) {
				t.Fatalf("trial %d: point %v outside hull %v", trial, p, h)
			}
		}
	}
}

// TestHullVerticesAreInputs: every hull vertex is an index into the
// input, and the lowest index holding its coordinates, on inputs where
// each point appears up to three times in shuffled order.
func TestHullVerticesAreInputs(t *testing.T) {
	src := xrand.New(100)
	for trial := 0; trial < 30; trial++ {
		base := randomPoints(src, 3+src.Intn(40))
		var pts []geom.Point
		for _, p := range base {
			for c := 1 + src.Intn(3); c > 0; c-- {
				pts = append(pts, p)
			}
		}
		for i, j := range src.Perm(len(pts)) {
			pts[i], pts[j] = pts[j], pts[i]
		}
		first := map[geom.Point]int{}
		for i := len(pts) - 1; i >= 0; i-- {
			first[pts[i]] = i
		}
		h := Convex(pts)
		for _, v := range h {
			if v < 0 || v >= len(pts) || first[pts[v]] != v {
				t.Fatalf("trial %d: hull vertex %d is not the lowest index of its point (hull %v)", trial, v, h)
			}
		}
	}
}

// TestConvexSignedZero: +0 and -0 are the same coordinate, so they
// collapse to one vertex, represented by the lower index whichever
// zero it holds.
func TestConvexSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pts := []geom.Point{
		geom.Pt(5, 5),             // 0: interior
		geom.Pt(10, negZero),      // 1: (10, 0)
		geom.Pt(negZero, 0),       // 2: (0, 0)
		geom.Pt(0, negZero),       // 3: (0, 0) again
		geom.Pt(10, 10),           // 4
		geom.Pt(0, 10),            // 5
		geom.Pt(negZero, negZero), // 6: (0, 0) again
		geom.Pt(10, 0),            // 7: (10, 0) again
		geom.Pt(negZero, 10),      // 8: (0, 10) again
	}
	want := []int{2, 1, 4, 5}
	got := Convex(pts)
	if len(got) != len(want) {
		t.Fatalf("Convex = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Convex = %v, want %v", got, want)
		}
	}
}

// TestGrahamMatchesMonotone cross-validates the two implementations on
// random inputs: same vertex cycle.
func TestGrahamMatchesMonotone(t *testing.T) {
	src := xrand.New(101)
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(src, 3+src.Intn(80))
		a := at(pts, Convex(pts))
		b := GrahamScan(pts)
		if len(a) != len(b) {
			t.Fatalf("trial %d: sizes differ %d vs %d\n%v\n%v", trial, len(a), len(b), a, b)
		}
		for i := range a {
			if !a[i].Eq(b[i]) {
				t.Fatalf("trial %d: vertex %d differs: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestHullConvexAgainstGrahamScan: the two hull constructions agree
// on perimeter, so a perimeter bound does not depend on which one
// Convex happens to be.
func TestHullConvexAgainstGrahamScan(t *testing.T) {
	src := xrand.New(45)
	for trial := 0; trial < 30; trial++ {
		pts := randomPoints(src, 12)
		a := geom.CycleLen(at(pts, Convex(pts)))
		b := geom.CycleLen(GrahamScan(pts))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("trial %d: Convex %v vs GrahamScan %v", trial, a, b)
		}
	}
}

// TestHullIdempotent: the hull of a hull is itself, vertex for vertex
// in the same order, so its indices are 0, 1, 2, ….
func TestHullIdempotent(t *testing.T) {
	src := xrand.New(102)
	pts := randomPoints(src, 50)
	h := at(pts, Convex(pts))
	h2 := Convex(h)
	if len(h) != len(h2) {
		t.Fatalf("idempotence broken: %d vs %d vertices", len(h), len(h2))
	}
	for i, j := range h2 {
		if j != i {
			t.Fatalf("vertex %d moved to %d: %v", i, j, h2)
		}
	}
}

// TestHullPerimeterMinimal: the hull perimeter never exceeds the
// closed polyline through all the points in any order (the hull is the
// shortest enclosing cycle of its vertex set).
func TestHullPerimeterBound(t *testing.T) {
	src := xrand.New(103)
	pts := randomPoints(src, 25)
	if geom.CycleLen(at(pts, Convex(pts))) > geom.CycleLen(pts)+1e-9 {
		t.Fatal("hull perimeter exceeds an arbitrary enclosing tour")
	}
}

func TestHullInputNotModified(t *testing.T) {
	pts := square()
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	Convex(pts)
	GrahamScan(pts)
	for i := range pts {
		if pts[i] != cp[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

func TestHullPropertyQuick(t *testing.T) {
	// Random coordinate sets via testing/quick; hull must contain all
	// inputs and be CCW-convex.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 3
		src := xrand.New(seed)
		pts := randomPoints(src, n)
		h := at(pts, Convex(pts))
		for _, p := range pts {
			if !containsPoint(h, p) {
				return false
			}
		}
		if len(h) >= 3 {
			for i := range h {
				if geom.Orient(h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]) == geom.Clockwise {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
