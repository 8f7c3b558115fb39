package walk

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// unitSquare returns 4 points on a 100-metre square.
func unitSquare() []geom.Point {
	return []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100),
	}
}

func TestNewCopies(t *testing.T) {
	seq := []int{0, 1, 2}
	w := New(seq)
	seq[0] = 9
	if w.Seq[0] != 0 {
		t.Fatal("New did not copy the sequence")
	}
}

func TestLength(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	if l := w.Length(pts); math.Abs(l-400) > 1e-9 {
		t.Fatalf("Length = %v, want 400", l)
	}
}

func TestOccurrences(t *testing.T) {
	w := New([]int{0, 1, 0, 2, 0})
	if n := w.Occurrences(0); n != 3 {
		t.Fatalf("Occurrences(0) = %d", n)
	}
	if n := w.Occurrences(5); n != 0 {
		t.Fatalf("Occurrences(5) = %d", n)
	}
	pos := w.OccurrencePositions(0)
	want := []int{0, 2, 4}
	if len(pos) != 3 || pos[0] != want[0] || pos[1] != want[1] || pos[2] != want[2] {
		t.Fatalf("positions = %v", pos)
	}
}

// TestCyclesAtPaperExample reproduces Fig. 2 / §3.2 of the paper: walk
// (g1, g10, g9, g4, g8, g7, g6, g5, g4, g3, g2, g1-wrap) — g4 is a VIP
// with weight 2 and decomposes the walk into two cycles.
func TestCyclesAtPaperExample(t *testing.T) {
	// Indices: g1=0, g2=1, ..., g10=9.
	w := New([]int{0, 9, 8, 3, 7, 6, 5, 4, 3, 2, 1})
	cycles := w.CyclesAt(3) // g4
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles, want 2", len(cycles))
	}
	// First cycle: g4 g8 g7 g6 g5 g4 (positions 3..8).
	want1 := []int{3, 7, 6, 5, 4, 3}
	if len(cycles[0]) != len(want1) {
		t.Fatalf("cycle 1 = %v", cycles[0])
	}
	for i := range want1 {
		if cycles[0][i] != want1[i] {
			t.Fatalf("cycle 1 = %v, want %v", cycles[0], want1)
		}
	}
	// Second cycle wraps: g4 g3 g2 g1 g10 g9 g4.
	want2 := []int{3, 2, 1, 0, 9, 8, 3}
	for i := range want2 {
		if cycles[1][i] != want2[i] {
			t.Fatalf("cycle 2 = %v, want %v", cycles[1], want2)
		}
	}
}

func TestCyclesAtSingleOccurrence(t *testing.T) {
	w := New([]int{0, 1, 2, 3})
	cycles := w.CyclesAt(2)
	if len(cycles) != 1 {
		t.Fatalf("got %d cycles", len(cycles))
	}
	// The single cycle is the whole walk, starting and ending at 2.
	want := []int{2, 3, 0, 1, 2}
	for i := range want {
		if cycles[0][i] != want[i] {
			t.Fatalf("cycle = %v, want %v", cycles[0], want)
		}
	}
	if c := w.CyclesAt(7); c != nil {
		t.Fatalf("absent target returned cycles: %v", c)
	}
}

// TestCycleLengthsSumToWalkLength: the cycles at any target partition
// the walk's edges, so their lengths must sum to the walk length.
func TestCycleLengthsSumToWalkLength(t *testing.T) {
	src := xrand.New(7)
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	w := New([]int{0, 9, 8, 3, 7, 6, 5, 4, 3, 2, 1})
	total := w.Length(pts)
	for _, idx := range []int{3, 0, 5} {
		lens := w.CycleLengthsAt(pts, idx)
		sum := 0.0
		for _, l := range lens {
			sum += l
		}
		if math.Abs(sum-total) > 1e-6 {
			t.Fatalf("cycles at %d sum to %v, walk length %v", idx, sum, total)
		}
	}
}

func TestRotate(t *testing.T) {
	w := New([]int{0, 1, 2, 3})
	r := w.Rotate(2)
	want := []int{2, 3, 0, 1}
	for i := range want {
		if r.Seq[i] != want[i] {
			t.Fatalf("Rotate = %v", r.Seq)
		}
	}
	// Rotation preserves length.
	pts := unitSquare()
	if math.Abs(w.Length(pts)-r.Length(pts)) > 1e-9 {
		t.Fatal("rotation changed length")
	}
	// Negative and overflow positions wrap.
	if r2 := w.Rotate(-1); r2.Seq[0] != 3 {
		t.Fatalf("Rotate(-1) = %v", r2.Seq)
	}
	if r3 := w.Rotate(6); r3.Seq[0] != 2 {
		t.Fatalf("Rotate(6) = %v", r3.Seq)
	}
}

func TestRotateToNorthmost(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(50, 500), geom.Pt(100, 20), geom.Pt(70, 300),
	}
	w := New([]int{0, 2, 1, 3}) // northmost is target 1 at walk position 2
	r := w.RotateToNorthmost(pts)
	if r.Seq[0] != 1 {
		t.Fatalf("walk starts at %d, want northmost target 1", r.Seq[0])
	}
}

func TestPointAt(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	if p := w.PointsAt(pts, []float64{0})[0]; !p.Eq(geom.Pt(0, 0)) {
		t.Fatalf("PointsAt(0) = %v", p)
	}
	if p := w.PointsAt(pts, []float64{50})[0]; !p.Eq(geom.Pt(50, 0)) {
		t.Fatalf("PointsAt(50) = %v", p)
	}
	if p := w.PointsAt(pts, []float64{150})[0]; !p.Eq(geom.Pt(100, 50)) {
		t.Fatalf("PointsAt(150) = %v", p)
	}
	// Wraps modulo walk length.
	if p := w.PointsAt(pts, []float64{450})[0]; !p.Eq(geom.Pt(50, 0)) {
		t.Fatalf("PointsAt(450) = %v", p)
	}
	if p := w.PointsAt(pts, []float64{-50})[0]; !p.Eq(geom.Pt(0, 50)) {
		t.Fatalf("PointsAt(-50) = %v", p)
	}
}

func TestStartPointsEquallySpaced(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	sp := w.StartPoints(pts, 4)
	want := []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100),
	}
	for i := range want {
		if !sp[i].Eq(want[i]) {
			t.Fatalf("start point %d = %v, want %v", i, sp[i], want[i])
		}
	}
	sp2 := w.StartPoints(pts, 2)
	if !sp2[0].Eq(geom.Pt(0, 0)) || !sp2[1].Eq(geom.Pt(100, 100)) {
		t.Fatalf("2 start points: %v", sp2)
	}
}

// TestStartPointsArcProperty: consecutive start points are exactly
// |walk|/n apart in arc length on arbitrary random walks.
func TestStartPointsArcProperty(t *testing.T) {
	src := xrand.New(11)
	f := func(seed uint64, nMules uint8) bool {
		local := xrand.New(seed)
		nPts := 4 + local.Intn(12)
		pts := make([]geom.Point, nPts)
		for i := range pts {
			pts[i] = geom.Pt(local.Range(0, 800), local.Range(0, 800))
		}
		perm := local.Perm(nPts)
		w := New(perm)
		n := int(nMules%6) + 1
		total := w.Length(pts)
		if total == 0 {
			return true
		}
		sp := w.StartPoints(pts, n)
		if len(sp) != n {
			return false
		}
		// Verify each start point lies on the walk polyline.
		closed := append(w.Points(pts), pts[w.Seq[0]])
		for _, p := range sp {
			onWalk := false
			for i := 1; i < len(closed); i++ {
				if (geom.Segment{A: closed[i-1], B: closed[i]}).DistToPoint(p) < 1e-6 {
					onWalk = true
					break
				}
			}
			if !onWalk {
				return false
			}
		}
		return true
	}
	_ = src
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStartPointsPanics(t *testing.T) {
	w := New([]int{0, 1})
	pts := unitSquare()
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("StartPoints(%d) did not panic", n)
				}
			}()
			w.StartPoints(pts, n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("StartPoints on empty walk did not panic")
			}
		}()
		New(nil).StartPoints(pts, 2)
	}()
}

func TestArcOffsets(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	off := w.ArcOffsets(pts)
	want := []float64{0, 100, 200, 300}
	for i := range want {
		if math.Abs(off[i]-want[i]) > 1e-9 {
			t.Fatalf("ArcOffsets = %v", off)
		}
	}
}

func TestInsertAfter(t *testing.T) {
	w := New([]int{0, 1, 2})
	w2 := w.InsertAfter(1, 7)
	want := []int{0, 1, 7, 2}
	if len(w2.Seq) != 4 {
		t.Fatalf("InsertAfter = %v", w2.Seq)
	}
	for i := range want {
		if w2.Seq[i] != want[i] {
			t.Fatalf("InsertAfter = %v, want %v", w2.Seq, want)
		}
	}
	// Insert across the closing edge.
	w3 := w.InsertAfter(2, 9)
	want3 := []int{0, 1, 2, 9}
	for i := range want3 {
		if w3.Seq[i] != want3[i] {
			t.Fatalf("InsertAfter(closing) = %v", w3.Seq)
		}
	}
	// Input untouched.
	if len(w.Seq) != 3 {
		t.Fatal("InsertAfter modified input")
	}
}

func TestInsertAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range InsertAfter did not panic")
		}
	}()
	New([]int{0, 1}).InsertAfter(5, 2)
}

// TestInsertAfterDetourLength: inserting via into edge (a,b) increases
// the walk length by exactly DetourCost(a, b, via).
func TestInsertAfterDetourLength(t *testing.T) {
	src := xrand.New(13)
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	w := New([]int{0, 1, 2, 3, 4, 5})
	before := w.Length(pts)
	pos, via := 2, 7
	w2 := w.InsertAfter(pos, via)
	after := w2.Length(pts)
	wantDelta := geom.DetourCost(pts[w.Seq[pos]], pts[w.Seq[pos+1]], pts[via])
	if math.Abs((after-before)-wantDelta) > 1e-9 {
		t.Fatalf("length delta %v, want %v", after-before, wantDelta)
	}
}

func TestValidate(t *testing.T) {
	w := New([]int{0, 1, 2})
	if err := w.Validate(3, nil); err != nil {
		t.Fatalf("hamiltonian rejected: %v", err)
	}
	if err := w.Validate(4, nil); err == nil {
		t.Fatal("missing target accepted")
	}
	vip := New([]int{0, 1, 0, 2})
	if err := vip.Validate(3, []int{2, 1, 1}); err != nil {
		t.Fatalf("weighted walk rejected: %v", err)
	}
	if err := vip.Validate(3, nil); err == nil {
		t.Fatal("weighted walk accepted as hamiltonian")
	}
	bad := New([]int{0, 5})
	if err := bad.Validate(3, nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	w := New([]int{0, 1, 2})
	c := w.Clone()
	c.Seq[0] = 9
	if w.Seq[0] != 0 {
		t.Fatal("Clone shares backing array")
	}
}

func TestSize(t *testing.T) {
	if New([]int{1, 2, 3}).Size() != 3 {
		t.Fatal("Size wrong")
	}
	if New(nil).Size() != 0 {
		t.Fatal("empty Size wrong")
	}
}

func TestNearestOffset(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	// A point outside the bottom edge projects onto it.
	if off := w.NearestOffset(pts, geom.Pt(30, -20)); math.Abs(off-30) > 1e-9 {
		t.Fatalf("NearestOffset bottom = %v, want 30", off)
	}
	// A point to the right of the right edge: arc offset 100 + y.
	if off := w.NearestOffset(pts, geom.Pt(150, 40)); math.Abs(off-140) > 1e-9 {
		t.Fatalf("NearestOffset right = %v, want 140", off)
	}
	// A point nearest the closing edge (left side, x<0).
	if off := w.NearestOffset(pts, geom.Pt(-10, 30)); math.Abs(off-370) > 1e-9 {
		t.Fatalf("NearestOffset closing = %v, want 370", off)
	}
	// Exactly on a vertex.
	if off := w.NearestOffset(pts, geom.Pt(100, 0)); math.Abs(off-100) > 1e-9 {
		t.Fatalf("NearestOffset vertex = %v, want 100", off)
	}
}

func TestNearestOffsetPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty walk did not panic")
		}
	}()
	New(nil).NearestOffset(unitSquare(), geom.Pt(0, 0))
}

// referenceNearestOffset is the retained per-query implementation the
// batched NearestOffsets replaced: scan segments in walk order, keep
// the first strictly nearer projection. The equivalence test below
// holds NearestOffsets (and so NearestOffset) to it bit for bit.
func referenceNearestOffset(w Walk, pts []geom.Point, p geom.Point) float64 {
	closed := closedPoints(w, pts)
	bestOff, bestDist := 0.0, math.Inf(1)
	acc := 0.0
	for i := 1; i < len(closed); i++ {
		a, b := closed[i-1], closed[i]
		segLen := geom.Segment{A: a, B: b}.Len()
		t := 0.0
		if segLen > 0 {
			t = p.Sub(a).Dot(b.Sub(a)) / (segLen * segLen)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
		}
		q := a.Lerp(b, t)
		if d := p.Dist(q); d < bestDist {
			bestDist = d
			bestOff = acc + t*segLen
		}
		acc += segLen
	}
	if acc > 0 && bestOff >= acc {
		bestOff -= acc
	}
	return bestOff
}

// closedPoints is the walk's closed polyline: its points with the first
// appended.
func closedPoints(w Walk, pts []geom.Point) []geom.Point {
	p := w.Points(pts)
	return append(p, p[0])
}

// TestPointsAlongClosedPolyline: StartPoints, PointsAt and Length walk
// the closed walk without building it, bit-equal to geom.PointAlong,
// geom.PathLen and geom.CycleLen on the built polyline, repeated
// targets, coincident points and offsets past either end included.
func TestPointsAlongClosedPolyline(t *testing.T) {
	src := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(10)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(src.Intn(8)), float64(src.Intn(8)))
		}
		seq := make([]int, 1+src.Intn(12))
		for i := range seq {
			seq[i] = src.Intn(n)
		}
		w := New(seq)
		closed := closedPoints(w, pts)
		total := geom.PathLen(closed)
		if got, want := w.Length(pts), geom.CycleLen(w.Points(pts)); math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(total) {
			t.Fatalf("walk %v: Length %v, CycleLen %v, PathLen %v", seq, got, want, total)
		}
		ref := func(d float64) geom.Point {
			if total > 0 {
				for d < 0 {
					d += total
				}
				for d >= total {
					d -= total
				}
			} else {
				d = 0
			}
			p, _ := geom.PointAlong(closed, d)
			return p
		}
		k := 1 + src.Intn(6)
		for i, p := range w.StartPoints(pts, k) {
			if want := ref(float64(i) * total / float64(k)); p != want {
				t.Fatalf("walk %v: start point %d of %d = %v, want %v", seq, i, k, p, want)
			}
		}
		ds := []float64{-total / 3, 0, total / 7, total / 2, total, 1.5 * total, geom.Eps / 2}
		for i, p := range w.PointsAt(pts, ds) {
			if want := ref(ds[i]); p != want {
				t.Fatalf("walk %v: point at %v = %v, want %v", seq, ds[i], p, want)
			}
		}
	}
}

// TestNearestOffsetsMatchesReference: the one-pass batch is bit-equal
// to the per-query scan on random walks — including tie cases, where
// the strict < comparison must keep the earliest equidistant segment.
func TestNearestOffsetsMatchesReference(t *testing.T) {
	src := xrand.New(29)
	for trial := 0; trial < 50; trial++ {
		n := 3 + src.Intn(12)
		pts := make([]geom.Point, n)
		seq := make([]int, n)
		for i := range pts {
			pts[i] = geom.Pt(src.Range(0, 500), src.Range(0, 500))
			seq[i] = i
		}
		w := New(seq)
		qs := make([]geom.Point, 6)
		for i := range qs {
			qs[i] = geom.Pt(src.Range(-100, 600), src.Range(-100, 600))
		}
		// Walk vertices are equidistant from two adjacent segments:
		// guaranteed ties.
		qs = append(qs, pts[0], pts[n/2])
		got := w.NearestOffsets(pts, qs)
		for i, q := range qs {
			if want := referenceNearestOffset(w, pts, q); got[i] != want {
				t.Fatalf("trial %d query %d: NearestOffsets = %v, reference = %v",
					trial, i, got[i], want)
			}
			if one := w.NearestOffset(pts, q); one != got[i] {
				t.Fatalf("trial %d query %d: NearestOffset = %v, batch = %v",
					trial, i, one, got[i])
			}
		}
	}
	// The exact tie: the square's center is equidistant from all four
	// edges; the first segment must win.
	sq := unitSquare()
	w := New([]int{0, 1, 2, 3})
	center := geom.Pt(50, 50)
	if got, want := w.NearestOffsets(sq, []geom.Point{center})[0],
		referenceNearestOffset(w, sq, center); got != want || got != 50 {
		t.Fatalf("center tie: batch %v, reference %v, want 50", got, want)
	}
}

// TestPointsAtMatchesPointAt: the shared-polyline batch is bit-equal to
// one query per offset, including negative and wrapping offsets.
func TestPointsAtMatchesPointAt(t *testing.T) {
	pts := unitSquare()
	w := New([]int{0, 1, 2, 3})
	ds := []float64{0, 30, 100, 399.5, 400, 650, -50, -400}
	got := w.PointsAt(pts, ds)
	for i, d := range ds {
		if want := w.PointsAt(pts, []float64{d})[0]; got[i] != want {
			t.Fatalf("PointsAt[%d] (d=%v) = %v, single query = %v", i, d, got[i], want)
		}
	}
}

// Property: the point at the returned offset is never farther from the
// query than any sampled point of the walk.
func TestNearestOffsetProperty(t *testing.T) {
	src := xrand.New(17)
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	w := New([]int{0, 1, 2, 3, 4, 5, 6, 7})
	total := w.Length(pts)
	f := func(qx, qy uint16) bool {
		q := geom.Pt(float64(qx%800), float64(qy%800))
		off := w.NearestOffset(pts, q)
		best := q.Dist(w.PointsAt(pts, []float64{off})[0])
		for f := 0.0; f < 1.0; f += 0.002 {
			if q.Dist(w.PointsAt(pts, []float64{f * total})[0]) < best-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
