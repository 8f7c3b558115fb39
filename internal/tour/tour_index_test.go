package tour

import (
	"fmt"
	"math/rand"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// equivalencePointSets yields point families that stress the indexed
// constructions: uniform random from empty to 400 points,
// duplicate-heavy, collinear, clustered, and near-coincident sets.
func equivalencePointSets(rnd *rand.Rand) map[string][]geom.Point {
	sets := map[string][]geom.Point{}

	for _, n := range []int{0, 1, 2, 3, 10, 47, 48, 120, 400} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
		}
		sets[nameN("uniform", n)] = pts
	}

	dup := make([]geom.Point, 0, 180)
	for i := 0; i < 60; i++ {
		p := geom.Pt(rnd.Float64()*200, rnd.Float64()*200)
		for j := 0; j < 3; j++ {
			dup = append(dup, p)
		}
	}
	sets["duplicates"] = dup

	col := make([]geom.Point, 90)
	for i := range col {
		col[i] = geom.Pt(float64(i%45)*10, 0)
	}
	sets["collinear"] = col

	clustered := make([]geom.Point, 0, 200)
	for c := 0; c < 5; c++ {
		cx, cy := rnd.Float64()*800, rnd.Float64()*800
		for i := 0; i < 40; i++ {
			clustered = append(clustered, geom.Pt(cx+rnd.NormFloat64()*3, cy+rnd.NormFloat64()*3))
		}
	}
	sets["clustered"] = clustered

	tiny := make([]geom.Point, 100)
	for i := range tiny {
		tiny[i] = geom.Pt(400+rnd.Float64()*1e-6, 400+rnd.Float64()*1e-6)
	}
	sets["near-coincident"] = tiny

	return sets
}

func nameN(prefix string, n int) string {
	return prefix + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func sameTour(a, b Tour) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNearestNeighborMatchesBrute pins the indexed construction to the
// linear-scan oracle bit-for-bit, across starts.
func TestNearestNeighborMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for name, pts := range equivalencePointSets(rnd) {
		starts := []int{0, len(pts) - 1, len(pts) / 2}
		if len(pts) == 0 {
			starts = []int{0}
		}
		for _, s := range starts {
			got := NearestNeighbor(pts, s)
			want := nearestNeighborScan(pts, s)
			if !sameTour(got, want) {
				t.Errorf("%s start %d: indexed tour differs from brute\n got %v\nwant %v", name, s, got, want)
			}
		}
	}
}

// TestConvexHullInsertionMatchesBrute pins the cached cheapest-
// insertion path to the quadratic rescan bit-for-bit. The 500 uniform
// sets of 48–99 points pin that every hull vertex, including those on
// the bounding box's edge, enters the skeleton.
func TestConvexHullInsertionMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for name, pts := range equivalencePointSets(rnd) {
		got := ConvexHullInsertion(pts)
		want := ConvexHullInsertionBrute(pts)
		if !sameTour(got, want) {
			t.Errorf("%s: accelerated tour differs from brute\n got %v\nwant %v", name, got, want)
		}
	}
	failed := 0
	for set := 0; set < 500; set++ {
		pts := make([]geom.Point, 48+rnd.Intn(52))
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
		}
		if !sameTour(ConvexHullInsertion(pts), ConvexHullInsertionBrute(pts)) {
			failed++
		}
	}
	if failed > 0 {
		t.Errorf("uniform n in [48,100): %d of 500 accelerated tours differ from brute", failed)
	}
}

// TestGreedyEdgeMatchesBrute pins the lazy candidate-edge construction
// to the full-sort oracle bit-for-bit on the equivalence families.
func TestGreedyEdgeMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for name, pts := range equivalencePointSets(rnd) {
		got := GreedyEdge(pts)
		want := greedyEdgeSort(pts)
		if !sameTour(got, want) {
			t.Errorf("%s: lazy-mode tour differs from brute\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestGreedyEdgeIndexedForced pins the lazy mode to the sort oracle on
// every uniform size from 2 to 40 points, the small inputs a size
// threshold would otherwise route away from the grid.
func TestGreedyEdgeIndexedForced(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	for n := 2; n <= 40; n++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
		}
		got := GreedyEdge(pts)
		want := greedyEdgeSort(pts)
		if !sameTour(got, want) {
			t.Fatalf("n=%d: lazy-mode tour differs from brute\n got %v\nwant %v", n, got, want)
		}
	}
}

// latticePoints decodes up to 64 points from data, one byte each: the
// high nibble is x and the low nibble y on a 16 × 16 integer lattice,
// so exact distance ties, duplicates and collinear runs are common.
func latticePoints(data []byte) []geom.Point {
	if len(data) > 64 {
		data = data[:64]
	}
	pts := make([]geom.Point, len(data))
	for i, b := range data {
		pts[i] = geom.Pt(float64(b>>4), float64(b&15))
	}
	return pts
}

// FuzzNearestNeighbor holds NearestNeighbor to the linear-scan oracle,
// bit for bit, from every start on a lattice point set.
func FuzzNearestNeighbor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := latticePoints(data)
		if len(pts) == 0 {
			if got := NearestNeighbor(pts, 0); len(got) != 0 {
				t.Fatalf("empty input gave tour %v", got)
			}
			return
		}
		for s := range pts {
			got := NearestNeighbor(pts, s)
			if want := nearestNeighborScan(pts, s); !sameTour(got, want) {
				t.Fatalf("%v start %d:\n got %v\nwant %v", pts, s, got, want)
			}
		}
	})
}

// FuzzGreedyEdge holds GreedyEdge to the full-sort oracle, bit for bit,
// on a lattice point set.
func FuzzGreedyEdge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := latticePoints(data)
		got := GreedyEdge(pts)
		if want := greedyEdgeSort(pts); !sameTour(got, want) {
			t.Fatalf("%v:\n got %v\nwant %v", pts, got, want)
		}
		if err := Validate(got, len(pts)); err != nil {
			t.Fatalf("%v: %v", pts, err)
		}
	})
}

// BenchmarkPlanNearestNeighborBrute and BenchmarkPlanGreedyEdgeBrute
// time the test-only scan oracles on BenchmarkPlanNearestNeighbor's and
// BenchmarkPlanGreedyEdge's inputs (root package), so the ratio is the
// indexed path's speedup. They are not gated; -short skips their n=10k
// rungs, which the quadratic scans take seconds to minutes over.
func BenchmarkPlanNearestNeighborBrute(b *testing.B) {
	benchPlanLadder(b, func(pts []geom.Point) { nearestNeighborScan(pts, 0) })
}

func BenchmarkPlanGreedyEdgeBrute(b *testing.B) {
	benchPlanLadder(b, func(pts []geom.Point) { greedyEdgeSort(pts) })
}

func benchPlanLadder(b *testing.B, plan func([]geom.Point)) {
	for _, n := range []int{100, 1_000, 10_000} {
		pts := randomPoints(xrand.New(7), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n >= 10_000 && testing.Short() {
				b.Skipf("n=%d skipped under -short", n)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan(pts)
			}
		})
	}
}
