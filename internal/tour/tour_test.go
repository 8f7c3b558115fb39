package tour

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

func randomPoints(src *xrand.Source, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	return pts
}

// randomTour returns a uniformly random circuit over n points.
func randomTour(n int, src *xrand.Source) Tour {
	return Tour(src.Perm(n))
}

func gridPoints() []geom.Point {
	return []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0),
		geom.Pt(200, 100), geom.Pt(100, 100), geom.Pt(0, 100),
	}
}

func TestLength(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(3, 4)}
	got := Length(pts, Tour{0, 1, 2})
	if math.Abs(got-12) > 1e-9 {
		t.Fatalf("Length = %v, want 12", got)
	}
	if l := Length(pts, Tour{0}); l != 0 {
		t.Fatalf("single-element length = %v", l)
	}
	if l := Length(pts, Tour{}); l != 0 {
		t.Fatalf("empty length = %v", l)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Tour{2, 0, 1}, 3); err != nil {
		t.Fatalf("valid tour rejected: %v", err)
	}
	if err := Validate(Tour{0, 1}, 3); err == nil {
		t.Fatal("short tour accepted")
	}
	if err := Validate(Tour{0, 0, 1}, 3); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := Validate(Tour{0, 1, 3}, 3); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := Validate(Tour{0, -1, 1}, 3); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestReverse(t *testing.T) {
	tr := Tour{0, 1, 2, 3}
	got := Reverse(tr)
	want := Tour{0, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Reverse = %v, want %v", got, want)
		}
	}
	if len(Reverse(Tour{})) != 0 {
		t.Fatal("Reverse empty")
	}
}

func TestReverseKeepsLength(t *testing.T) {
	src := xrand.New(5)
	pts := randomPoints(src, 12)
	tr := Tour(src.Perm(12))
	if math.Abs(Length(pts, tr)-Length(pts, Reverse(tr))) > 1e-9 {
		t.Fatal("reversal changed tour length")
	}
}

func TestEnsureCCW(t *testing.T) {
	pts := gridPoints()
	ccw := Tour{0, 1, 2, 3, 4, 5} // already counterclockwise
	if SignedArea(pts, ccw) <= 0 {
		t.Fatal("test fixture not CCW")
	}
	cw := Reverse(ccw)
	fixed := EnsureCCW(pts, cw)
	if SignedArea(pts, fixed) <= 0 {
		t.Fatal("EnsureCCW did not flip a clockwise tour")
	}
	same := EnsureCCW(pts, ccw)
	if SignedArea(pts, same) <= 0 {
		t.Fatal("EnsureCCW broke a CCW tour")
	}
}

func TestConvexHullInsertionValid(t *testing.T) {
	src := xrand.New(7)
	for trial := 0; trial < 30; trial++ {
		n := 3 + src.Intn(60)
		pts := randomPoints(src, n)
		tr := ConvexHullInsertion(pts)
		if err := Validate(tr, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestConvexHullInsertionSmall(t *testing.T) {
	if tr := ConvexHullInsertion(nil); len(tr) != 0 {
		t.Fatalf("empty: %v", tr)
	}
	if tr := ConvexHullInsertion([]geom.Point{geom.Pt(1, 1)}); len(tr) != 1 {
		t.Fatalf("single: %v", tr)
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if tr := ConvexHullInsertion(two); Validate(tr, 2) != nil {
		t.Fatalf("two: %v", tr)
	}
	// All points identical — hull degenerates; must still be valid.
	same := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)}
	if tr := ConvexHullInsertion(same); Validate(tr, 4) != nil {
		t.Fatalf("identical points: %v", tr)
	}
}

func TestConvexHullInsertionIsCCW(t *testing.T) {
	src := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(src, 20)
		tr := ConvexHullInsertion(pts)
		if SignedArea(pts, tr) < 0 {
			t.Fatalf("trial %d: tour is clockwise", trial)
		}
	}
}

func TestConvexHullInsertionOnConvexSet(t *testing.T) {
	// When every point is a hull vertex the tour must be exactly the
	// hull cycle, which is optimal.
	pts := gridPoints()
	tr := ConvexHullInsertion(pts)
	if err := Validate(tr, len(pts)); err != nil {
		t.Fatal(err)
	}
	want := 2*200.0 + 2*100.0
	if got := Length(pts, tr); math.Abs(got-want) > 1e-9 {
		t.Fatalf("convex-set tour length = %v, want %v", got, want)
	}
}

func TestNearestNeighborValid(t *testing.T) {
	src := xrand.New(13)
	pts := randomPoints(src, 30)
	tr := NearestNeighbor(pts, 0)
	if err := Validate(tr, 30); err != nil {
		t.Fatal(err)
	}
	if tr[0] != 0 {
		t.Fatalf("tour does not start at requested index: %v", tr[0])
	}
	tr2 := NearestNeighbor(pts, 7)
	if tr2[0] != 7 {
		t.Fatalf("start 7 ignored: %v", tr2[0])
	}
}

func TestNearestNeighborPanicsOnBadStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad start did not panic")
		}
	}()
	NearestNeighbor(randomPoints(xrand.New(1), 5), 9)
}

func TestGreedyEdgeValid(t *testing.T) {
	src := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(50)
		pts := randomPoints(src, n)
		tr := GreedyEdge(pts)
		if err := Validate(tr, n); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
	if tr := GreedyEdge(nil); len(tr) != 0 {
		t.Fatal("empty greedy")
	}
	if tr := GreedyEdge([]geom.Point{geom.Pt(0, 0)}); len(tr) != 1 {
		t.Fatal("single greedy")
	}
}

func TestRandomTourValid(t *testing.T) {
	src := xrand.New(19)
	tr := randomTour(25, src)
	if err := Validate(tr, 25); err != nil {
		t.Fatal(err)
	}
}

func TestTwoOptImproves(t *testing.T) {
	src := xrand.New(23)
	pts := randomPoints(src, 40)
	start := randomTour(40, src)
	input := append(Tour(nil), start...)
	before := Length(pts, start)
	after := TwoOpt(pts, start)
	if err := Validate(after, 40); err != nil {
		t.Fatal(err)
	}
	for i := range start {
		if start[i] != input[i] {
			t.Fatal("2-opt modified its input tour")
		}
	}
	la := Length(pts, after)
	if la > before+1e-9 {
		t.Fatalf("2-opt worsened tour: %v -> %v", before, la)
	}
	// A random tour over 40 points is far from optimal; 2-opt should
	// find a strictly better one.
	if la >= before {
		t.Fatalf("2-opt found no improvement on a random tour (%v)", before)
	}
}

func TestTwoOptFixedPoint(t *testing.T) {
	src := xrand.New(29)
	pts := randomPoints(src, 25)
	once := TwoOpt(pts, randomTour(25, src))
	twice := TwoOpt(pts, once)
	if math.Abs(Length(pts, once)-Length(pts, twice)) > 1e-9 {
		t.Fatal("2-opt not at a fixed point after convergence")
	}
}

func TestTwoOptSmallInputsNoop(t *testing.T) {
	pts := randomPoints(xrand.New(1), 3)
	tr := Tour{0, 1, 2}
	out := TwoOpt(pts, tr)
	if err := Validate(out, 3); err != nil {
		t.Fatal(err)
	}
}

// TestHeuristicQualityOrdering: on random instances the constructive
// heuristics must beat a random tour on average, and 2-opt must not be
// worse than its seed construction.
func TestHeuristicQualityOrdering(t *testing.T) {
	src := xrand.New(41)
	var chb, nn, rnd float64
	const trials = 15
	for i := 0; i < trials; i++ {
		pts := randomPoints(src, 35)
		chb += Length(pts, ConvexHullInsertion(pts))
		nn += Length(pts, NearestNeighbor(pts, 0))
		rnd += Length(pts, randomTour(35, src))
	}
	if chb >= rnd {
		t.Fatalf("convex-hull insertion (%v) not better than random (%v)", chb/trials, rnd/trials)
	}
	if nn >= rnd {
		t.Fatalf("nearest neighbour (%v) not better than random (%v)", nn/trials, rnd/trials)
	}
}

func TestConvexHullInsertionBeatsNNOnAverage(t *testing.T) {
	src := xrand.New(43)
	var chb, nn float64
	const trials = 20
	for i := 0; i < trials; i++ {
		pts := randomPoints(src, 40)
		chb += Length(pts, ConvexHullInsertion(pts))
		nn += Length(pts, NearestNeighbor(pts, 0))
	}
	// CHB (cheapest insertion) is a well-known stronger constructive
	// heuristic than plain NN on uniform instances.
	if chb > nn {
		t.Logf("note: CHB average %v vs NN %v (CHB expected ≤ NN on average)", chb/trials, nn/trials)
	}
}

func TestTourPropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		src := xrand.New(seed)
		pts := randomPoints(src, n)
		tr := ConvexHullInsertion(pts)
		if Validate(tr, n) != nil {
			return false
		}
		improved := TwoOpt(pts, tr)
		if Validate(improved, n) != nil {
			return false
		}
		return Length(pts, improved) <= Length(pts, tr)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceSmall(t *testing.T) {
	// A square plus centre point: the optimum is known by inspection
	// to route the centre between two adjacent corners.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
	}
	opt := BruteForce(pts)
	if err := Validate(opt, 4); err != nil {
		t.Fatal(err)
	}
	if l := Length(pts, opt); math.Abs(l-40) > 1e-9 {
		t.Fatalf("square optimum = %v, want 40", l)
	}
	if tr := BruteForce(nil); len(tr) != 0 {
		t.Fatal("empty brute force")
	}
	if tr := BruteForce(pts[:2]); Validate(tr, 2) != nil {
		t.Fatal("two-point brute force")
	}
}

func TestBruteForcePanicsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized brute force did not panic")
		}
	}()
	BruteForce(randomPoints(xrand.New(1), 11))
}

// TestHeuristicsVsOptimal bounds the constructive heuristics against
// the exhaustive optimum on small instances: CHB + 2-opt must be
// within 5% of optimal on random 8-point instances (in practice it is
// almost always exactly optimal at this size).
func TestHeuristicsVsOptimal(t *testing.T) {
	src := xrand.New(61)
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(src, 8)
		opt := Length(pts, BruteForce(pts))
		chb := Length(pts, TwoOpt(pts, ConvexHullInsertion(pts)))
		if chb < opt-1e-9 {
			t.Fatalf("trial %d: heuristic %.3f beat the optimum %.3f", trial, chb, opt)
		}
		if chb > 1.05*opt {
			t.Fatalf("trial %d: CHB+2opt %.3f exceeds optimum %.3f by >5%%", trial, chb, opt)
		}
	}
}

// TestTwoOptNoProperCrossing: at a 2-opt local optimum no two tour
// edges properly cross (uncrossing is always an improving move).
func TestTwoOptNoProperCrossing(t *testing.T) {
	src := xrand.New(67)
	for trial := 0; trial < 15; trial++ {
		pts := randomPoints(src, 25)
		tr := TwoOpt(pts, randomTour(25, src))
		if HasProperCrossing(pts, tr) {
			t.Fatalf("trial %d: 2-opt-optimal tour has a crossing", trial)
		}
	}
}

func TestHasProperCrossingDetects(t *testing.T) {
	// A deliberately crossed "bowtie" order on square corners.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
	}
	bowtie := Tour{0, 1, 3, 2} // edges (1,3) and (2,0) cross
	if !HasProperCrossing(pts, bowtie) {
		t.Fatal("bowtie crossing not detected")
	}
	square := Tour{0, 1, 2, 3}
	if HasProperCrossing(pts, square) {
		t.Fatal("convex square reported crossing")
	}
	if HasProperCrossing(pts[:3], Tour{0, 1, 2}) {
		t.Fatal("triangle reported crossing")
	}
}

// TestConvexHullInsertionNearOptimalProperty: on random small
// instances the paper's construction stays within 25% of optimal even
// without 2-opt.
func TestConvexHullInsertionNearOptimalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		pts := randomPoints(src, 7)
		opt := Length(pts, BruteForce(pts))
		chb := Length(pts, ConvexHullInsertion(pts))
		return chb >= opt-1e-9 && chb <= 1.25*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
