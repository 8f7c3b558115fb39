package cluster

import (
	"testing"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// fourCorners returns tight point groups near the corners of a square,
// an unambiguous 4-clustering.
func fourCorners() []geom.Point {
	var pts []geom.Point
	for _, c := range []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100),
	} {
		for i := 0; i < 5; i++ {
			pts = append(pts, geom.Pt(c.X+float64(i), c.Y+float64(i%2)))
		}
	}
	return pts
}

func TestKMeansRecoversCorners(t *testing.T) {
	pts := fourCorners()
	assign := KMeans(pts, 4, xrand.New(1), 100)
	// All five points of each corner must share a label, and the four
	// corners must have distinct labels.
	labels := map[int]bool{}
	for corner := 0; corner < 4; corner++ {
		first := assign[corner*5]
		for i := 1; i < 5; i++ {
			if assign[corner*5+i] != first {
				t.Fatalf("corner %d split across clusters: %v", corner, assign)
			}
		}
		if labels[first] {
			t.Fatalf("two corners share label %d: %v", first, assign)
		}
		labels[first] = true
	}
}

func TestKMeansAllClustersNonEmpty(t *testing.T) {
	src := xrand.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 10 + src.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
		}
		k := 1 + src.Intn(8)
		if k > n {
			k = n
		}
		assign := KMeans(pts, k, src, 50)
		groups := Groups(assign, k)
		for c, g := range groups {
			if len(g) == 0 {
				t.Fatalf("trial %d: cluster %d empty (k=%d, n=%d)", trial, c, k, n)
			}
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts := fourCorners()
	a := KMeans(pts, 4, xrand.New(42), 100)
	b := KMeans(pts, 4, xrand.New(42), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestKMeansK1AndKn(t *testing.T) {
	pts := fourCorners()
	one := KMeans(pts, 1, xrand.New(1), 10)
	for _, c := range one {
		if c != 0 {
			t.Fatal("k=1 must assign everything to cluster 0")
		}
	}
	all := KMeans(pts, len(pts), xrand.New(1), 10)
	groups := Groups(all, len(pts))
	for c, g := range groups {
		if len(g) != 1 {
			t.Fatalf("k=n cluster %d has %d members", c, len(g))
		}
	}
}

func TestKMeansPanics(t *testing.T) {
	pts := fourCorners()
	for _, k := range []int{0, -1, len(pts) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d did not panic", k)
				}
			}()
			KMeans(pts, k, xrand.New(1), 10)
		}()
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Pt(5, 5)
	}
	assign := KMeans(pts, 3, xrand.New(1), 20)
	if len(assign) != 10 {
		t.Fatal("wrong assignment length")
	}
	for _, c := range assign {
		if c < 0 || c >= 3 {
			t.Fatalf("label %d out of range", c)
		}
	}
}

// TestKMeansNeverEmptyProperty drives KMeans across adversarial
// randomized inputs — heavy duplicate mass plus a few distinct
// outliers, any k up to n — and requires every cluster non-empty every
// time, plus run-to-run determinism from equal sources.
func TestKMeansNeverEmptyProperty(t *testing.T) {
	meta := xrand.New(77)
	for trial := 0; trial < 50; trial++ {
		n := 3 + meta.Intn(30)
		pts := make([]geom.Point, n)
		heavy := geom.Pt(meta.Range(0, 800), meta.Range(0, 800))
		for i := range pts {
			if meta.Float64() < 0.7 {
				pts[i] = heavy // duplicate mass at one point
			} else {
				pts[i] = geom.Pt(meta.Range(0, 800), meta.Range(0, 800))
			}
		}
		k := 1 + meta.Intn(n)
		seed := meta.Uint64()
		assign := KMeans(pts, k, xrand.New(seed), 50)
		for c, g := range Groups(assign, k) {
			if len(g) == 0 {
				t.Fatalf("trial %d: cluster %d empty (k=%d, n=%d, pts=%v)", trial, c, k, n, pts)
			}
		}
		again := KMeans(pts, k, xrand.New(seed), 50)
		for i := range assign {
			if assign[i] != again[i] {
				t.Fatalf("trial %d: KMeans not deterministic across runs", trial)
			}
		}
	}
}

// validSectors asserts the structural Sectors contract on degenerate
// geometries: a complete label range, non-empty near-equal sectors,
// and determinism across runs.
func validSectors(t *testing.T, pts []geom.Point, k int) {
	t.Helper()
	assign := Sectors(pts, k)
	groups := Groups(assign, k) // panics on out-of-range labels
	for c, g := range groups {
		if len(g) < len(pts)/k || len(g) > len(pts)/k+1 {
			t.Fatalf("sector %d has %d members of %d (k=%d)", c, len(g), len(pts), k)
		}
	}
	again := Sectors(pts, k)
	for i := range assign {
		if assign[i] != again[i] {
			t.Fatal("Sectors not deterministic across runs")
		}
	}
}

// TestSectorsCollinearPoints: every point on one line through the
// centroid, so only two distinct polar angles exist.
func TestSectorsCollinearPoints(t *testing.T) {
	pts := make([]geom.Point, 11)
	for i := range pts {
		pts[i] = geom.Pt(float64(i*10), 50)
	}
	for _, k := range []int{1, 2, 3, 5, 11} {
		validSectors(t, pts, k)
	}
}

// TestSectorsDuplicateAngles: many points share the exact same polar
// angle (stacked on one ray), which exercises the index tie-break of
// the angular sort.
func TestSectorsDuplicateAngles(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Pt(100+float64(i+1)*10, 100)) // one ray
	}
	pts = append(pts, geom.Pt(100, 200), geom.Pt(0, 100)) // off-ray mass
	for _, k := range []int{2, 3, 4} {
		validSectors(t, pts, k)
	}
}

// TestSectorsCentroidCoincident: points sitting exactly on the
// centroid (Atan2(0,0) = 0) must still land in exactly one sector.
func TestSectorsCentroidCoincident(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(100, 0), geom.Pt(-100, 0), geom.Pt(0, 100), geom.Pt(0, -100),
		geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0), // at the centroid
	}
	for _, k := range []int{1, 2, 3, 7} {
		validSectors(t, pts, k)
	}
}

// TestSectorsAllCoincident: every point identical — the centroid
// coincides with all of them and every angle is Atan2(0,0).
func TestSectorsAllCoincident(t *testing.T) {
	pts := make([]geom.Point, 9)
	for i := range pts {
		pts[i] = geom.Pt(42, 42)
	}
	for _, k := range []int{1, 3, 9} {
		validSectors(t, pts, k)
	}
}

func TestSectorsBalancedSizes(t *testing.T) {
	src := xrand.New(9)
	pts := make([]geom.Point, 23)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	k := 4
	assign := Sectors(pts, k)
	groups := Groups(assign, k)
	for c, g := range groups {
		if len(g) < len(pts)/k || len(g) > len(pts)/k+1 {
			t.Fatalf("sector %d has %d members of %d", c, len(g), len(pts))
		}
	}
}

func TestSectorsDeterministic(t *testing.T) {
	pts := fourCorners()
	a := Sectors(pts, 3)
	b := Sectors(pts, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sectors not deterministic")
		}
	}
}

func TestSectorsAngularContiguity(t *testing.T) {
	// Points on a circle, in order: each sector must be a contiguous
	// angular run.
	pts := make([]geom.Point, 12)
	for i := range pts {
		angle := float64(i) * 2 * 3.141592653589793 / 12
		pts[i] = geom.Pt(100+50*cos(angle), 100+50*sin(angle))
	}
	assign := Sectors(pts, 4)
	groups := Groups(assign, 4)
	for c, g := range groups {
		if len(g) != 3 {
			t.Fatalf("sector %d has %d members", c, len(g))
		}
	}
}

func cos(x float64) float64 {
	// Tiny local wrappers keep math import noise out of the test.
	return float64(real(complexExp(x)))
}

func sin(x float64) float64 {
	return float64(imag(complexExp(x)))
}

func complexExp(x float64) complex128 {
	// e^{ix} via the standard library would be math.Cos/Sin; this
	// helper exists only to exercise the sector geometry.
	return complex(cosTaylor(x), sinTaylor(x))
}

func cosTaylor(x float64) float64 {
	// Range-reduce to [-π, π] then Taylor to sufficient precision for
	// test geometry (12 evenly spaced points).
	const pi = 3.141592653589793
	for x > pi {
		x -= 2 * pi
	}
	for x < -pi {
		x += 2 * pi
	}
	term, sum := 1.0, 1.0
	for k := 1; k <= 10; k++ {
		term *= -x * x / float64((2*k-1)*(2*k))
		sum += term
	}
	return sum
}

func sinTaylor(x float64) float64 {
	const pi = 3.141592653589793
	for x > pi {
		x -= 2 * pi
	}
	for x < -pi {
		x += 2 * pi
	}
	term, sum := x, x
	for k := 1; k <= 10; k++ {
		term *= -x * x / float64((2*k)*(2*k+1))
		sum += term
	}
	return sum
}

func TestSectorsPanics(t *testing.T) {
	pts := fourCorners()
	for _, k := range []int{0, len(pts) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d did not panic", k)
				}
			}()
			Sectors(pts, k)
		}()
	}
}

func TestGroups(t *testing.T) {
	assign := []int{0, 1, 0, 2, 1}
	g := Groups(assign, 3)
	if len(g[0]) != 2 || g[0][0] != 0 || g[0][1] != 2 {
		t.Fatalf("group 0 = %v", g[0])
	}
	if len(g[1]) != 2 || len(g[2]) != 1 {
		t.Fatalf("groups = %v", g)
	}
}

func TestGroupsPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	Groups([]int{0, 7}, 3)
}

func TestCostImprovesWithMoreClusters(t *testing.T) {
	pts := fourCorners()
	src := xrand.New(11)
	c1 := cost(pts, KMeans(pts, 1, src, 100), 1)
	c4 := cost(pts, KMeans(pts, 4, src, 100), 4)
	if c4 >= c1 {
		t.Fatalf("cost with 4 clusters (%v) not below 1 cluster (%v)", c4, c1)
	}
	if c4 < 0 {
		t.Fatalf("negative cost %v", c4)
	}
}

func TestKMeansBeatsRandomPartition(t *testing.T) {
	pts := fourCorners()
	src := xrand.New(13)
	km := cost(pts, KMeans(pts, 4, src, 100), 4)
	// A deliberately bad partition: round-robin by index.
	bad := make([]int, len(pts))
	for i := range bad {
		bad[i] = i % 4
	}
	if km >= cost(pts, bad, 4) {
		t.Fatalf("k-means cost %v not below round-robin %v", km, cost(pts, bad, 4))
	}
}
