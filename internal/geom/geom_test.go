package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); !almost(d, 5) {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist(Pt(1, 1)); !almost(d, 0) {
		t.Fatalf("Dist to self = %v", d)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Keep magnitudes sane to avoid overflow in the square.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		d := a.Dist(b)
		return math.Abs(d*d-a.Dist2(b)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	p := Pt(2, 3)
	v := Vec{1, -1}
	if got := p.Add(v); !got.Eq(Pt(3, 2)) {
		t.Fatalf("Add = %v", got)
	}
	if got := Pt(3, 2).Sub(p); got != (Vec{1, -1}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0.5); !got.Eq(Pt(5, 10)) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Fatalf("Lerp(1) = %v", got)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if !almost(v.Len(), 5) {
		t.Fatalf("Len = %v", v.Len())
	}
	if !almost(v.Len2(), 25) {
		t.Fatalf("Len2 = %v", v.Len2())
	}
	if !almost(v.Dot(Vec{1, 0}), 3) {
		t.Fatalf("Dot = %v", v.Dot(Vec{1, 0}))
	}
	if !almost(Vec{1, 0}.Cross(Vec{0, 1}), 1) {
		t.Fatal("Cross of x,y should be +1")
	}
	u := v.Unit()
	if !almost(u.Len(), 1) {
		t.Fatalf("Unit length = %v", u.Len())
	}
	if z := (Vec{0, 0}).Unit(); z != (Vec{0, 0}) {
		t.Fatalf("Unit of zero = %v", z)
	}
	if s := v.Scale(2); s != (Vec{6, 8}) {
		t.Fatalf("Scale = %v", s)
	}
}

func TestOrient(t *testing.T) {
	if o := Orient(Pt(0, 0), Pt(1, 0), Pt(1, 1)); o != Counterclockwise {
		t.Fatalf("left turn misclassified: %v", o)
	}
	if o := Orient(Pt(0, 0), Pt(1, 0), Pt(1, -1)); o != Clockwise {
		t.Fatalf("right turn misclassified: %v", o)
	}
	if o := Orient(Pt(0, 0), Pt(1, 0), Pt(2, 0)); o != Collinear {
		t.Fatalf("collinear misclassified: %v", o)
	}
}

func TestCCWAngleQuadrants(t *testing.T) {
	x := Vec{1, 0}
	cases := []struct {
		to   Vec
		want float64
	}{
		{Vec{1, 0}, 0},
		{Vec{0, 1}, math.Pi / 2},
		{Vec{-1, 0}, math.Pi},
		{Vec{0, -1}, 3 * math.Pi / 2},
	}
	for _, c := range cases {
		if got := CCWAngle(x, c.to); !almost(got, c.want) {
			t.Errorf("CCWAngle(x, %v) = %v, want %v", c.to, got, c.want)
		}
	}
}

func TestCCWAngleAntisymmetry(t *testing.T) {
	f := func(a, b float64) bool {
		v := Vec{math.Cos(a), math.Sin(a)}
		w := Vec{math.Cos(b), math.Sin(b)}
		s := CCWAngle(v, w) + CCWAngle(w, v)
		// The two rotations sum to 2π unless the vectors are
		// parallel (both angles 0) or anti-parallel.
		return almost(s, 2*math.Pi) || almost(s, 0) || almost(s, 2*math.Pi-0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if !almost(s.Len(), 10) {
		t.Fatalf("Len = %v", s.Len())
	}
	if p := s.At(0.25); !p.Eq(Pt(2.5, 0)) {
		t.Fatalf("At = %v", p)
	}
	if d := s.DistToPoint(Pt(5, 3)); !almost(d, 3) {
		t.Fatalf("DistToPoint interior = %v", d)
	}
	if d := s.DistToPoint(Pt(-4, 3)); !almost(d, 5) {
		t.Fatalf("DistToPoint beyond A = %v", d)
	}
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if d := deg.DistToPoint(Pt(4, 5)); !almost(d, 5) {
		t.Fatalf("DistToPoint degenerate = %v", d)
	}
}

func TestDetourCostNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e4)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		return DetourCost(a, b, c) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDetourCostOnSegmentIsZero(t *testing.T) {
	if d := DetourCost(Pt(0, 0), Pt(10, 0), Pt(4, 0)); !almost(d, 0) {
		t.Fatalf("collinear detour = %v", d)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(1, 5))
	if !r.Contains(Pt(3, 3)) {
		t.Fatal("Contains failed for interior point")
	}
	if !r.Contains(Pt(1, 1)) {
		t.Fatal("Contains failed for corner")
	}
	if r.Contains(Pt(0, 3)) {
		t.Fatal("Contains accepted exterior point")
	}
	if !almost(r.Width(), 4) || !almost(r.Height(), 4) {
		t.Fatalf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); !c.Eq(Pt(3, 3)) {
		t.Fatalf("Center = %v", c)
	}
}

func TestBounds(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-1, 4), Pt(2, -2)}
	r := Bounds(pts)
	if !r.Min.Eq(Pt(-1, -2)) || !r.Max.Eq(Pt(3, 4)) {
		t.Fatalf("Bounds = %+v", r)
	}
}

func TestBoundsPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bounds(nil) did not panic")
		}
	}()
	Bounds(nil)
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if c := Centroid(pts); !c.Eq(Pt(1, 1)) {
		t.Fatalf("Centroid = %v", c)
	}
}

func TestPathAndCycleLen(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 0), Pt(3, 4)}
	if l := PathLen(pts); !almost(l, 7) {
		t.Fatalf("PathLen = %v", l)
	}
	if l := CycleLen(pts); !almost(l, 12) {
		t.Fatalf("CycleLen = %v", l)
	}
	if l := CycleLen(pts[:1]); l != 0 {
		t.Fatalf("CycleLen single = %v", l)
	}
	if l := PathLen(nil); l != 0 {
		t.Fatalf("PathLen empty = %v", l)
	}
}

func TestPointAlong(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	p, seg := PointAlong(pts, 5)
	if !p.Eq(Pt(5, 0)) || seg != 0 {
		t.Fatalf("PointAlong(5) = %v seg %d", p, seg)
	}
	p, seg = PointAlong(pts, 15)
	if !p.Eq(Pt(10, 5)) || seg != 1 {
		t.Fatalf("PointAlong(15) = %v seg %d", p, seg)
	}
	p, _ = PointAlong(pts, 0)
	if !p.Eq(Pt(0, 0)) {
		t.Fatalf("PointAlong(0) = %v", p)
	}
	p, _ = PointAlong(pts, 999)
	if !p.Eq(Pt(10, 10)) {
		t.Fatalf("PointAlong past end = %v", p)
	}
	p, _ = PointAlong(pts, -3)
	if !p.Eq(Pt(0, 0)) {
		t.Fatalf("PointAlong negative = %v", p)
	}
}

func TestPointAlongProperty(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(7, 0), Pt(7, 7), Pt(0, 7)}
	total := PathLen(pts)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		d := math.Mod(math.Abs(raw), total)
		p, _ := PointAlong(pts, d)
		// The returned point must lie on the polyline: its distance
		// from the start measured along the line equals d.
		var acc float64
		for i := 1; i < len(pts); i++ {
			seg := Segment{pts[i-1], pts[i]}
			if seg.DistToPoint(p) < 1e-7 {
				got := acc + pts[i-1].Dist(p)
				if math.Abs(got-d) < 1e-6 {
					return true
				}
			}
			acc += seg.Len()
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorthmost(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 9), Pt(2, 9), Pt(1, 3)}
	// Two points share max Y; the smaller X (index 2) wins.
	if got := Northmost(pts); got != 2 {
		t.Fatalf("Northmost = %d, want 2", got)
	}
	if got := Northmost([]Point{Pt(1, 1)}); got != 0 {
		t.Fatalf("Northmost singleton = %d", got)
	}
}

func TestPointString(t *testing.T) {
	if s := Pt(1, 2).String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestSegmentIntersects(t *testing.T) {
	x := Segment{Pt(0, 0), Pt(10, 10)}
	cross := Segment{Pt(0, 10), Pt(10, 0)}
	if !x.ProperlyIntersects(cross) || !cross.ProperlyIntersects(x) {
		t.Fatal("proper crossing not detected")
	}
	apart := Segment{Pt(20, 20), Pt(30, 30)}
	if x.ProperlyIntersects(apart) {
		t.Fatal("disjoint segments reported properly intersecting")
	}
}

func TestSegmentTouchingEndpoints(t *testing.T) {
	a := Segment{Pt(0, 0), Pt(10, 0)}
	b := Segment{Pt(10, 0), Pt(20, 5)} // shares endpoint (10,0)
	if a.ProperlyIntersects(b) {
		t.Fatal("endpoint contact wrongly counted as proper crossing")
	}
}

func TestSegmentCollinearOverlap(t *testing.T) {
	a := Segment{Pt(0, 0), Pt(10, 0)}
	b := Segment{Pt(5, 0), Pt(15, 0)}
	if a.ProperlyIntersects(b) {
		t.Fatal("collinear overlap counted as proper crossing")
	}
}

func TestSegmentTShape(t *testing.T) {
	// b's endpoint lies in a's interior: touching but not proper.
	a := Segment{Pt(0, 0), Pt(10, 0)}
	b := Segment{Pt(5, 0), Pt(5, 8)}
	if a.ProperlyIntersects(b) {
		t.Fatal("T contact counted as proper crossing")
	}
}

func TestProperIntersectsSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Segment{Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))}
		u := Segment{Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy))}
		return s.ProperlyIntersects(u) == u.ProperlyIntersects(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
