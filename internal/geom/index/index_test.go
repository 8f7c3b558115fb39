package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tctp/internal/geom"
)

// bruteNearest is the reference the Grid must reproduce bit-for-bit:
// a linear scan tracking the strict minimum of Dist2 in ascending
// index order, exactly like the planners' pre-index hot loops.
func bruteNearest(pts []geom.Point, alive []bool, q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if alive != nil && !alive[i] {
			continue
		}
		if d := q.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func bruteKNearest(pts []geom.Point, alive []bool, q geom.Point, k int) []int {
	type cand struct {
		d float64
		i int
	}
	var cs []cand
	for i, p := range pts {
		if alive != nil && !alive[i] {
			continue
		}
		cs = append(cs, cand{q.Dist2(p), i})
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].i < cs[b].i
	})
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]int, 0, k)
	for _, c := range cs[:k] {
		out = append(out, c.i)
	}
	return out
}

// pointSets yields the adversarial families the issue calls out:
// uniform random, duplicate-heavy, collinear, single-cell (tiny
// extent), plus single-point and clustered sets.
func pointSets(rnd *rand.Rand) map[string][]geom.Point {
	sets := map[string][]geom.Point{}

	uniform := make([]geom.Point, 200)
	for i := range uniform {
		uniform[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
	}
	sets["uniform"] = uniform

	// Small uniform sets, each with its own grid geometry: queries at
	// their bounding-box-edge points probe the cell-bound rounding
	// (see queries) under many cell sizes.
	for set := 0; set < 40; set++ {
		pts := make([]geom.Point, 48+rnd.Intn(52))
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
		}
		sets[fmt.Sprintf("uniform-%d", set)] = pts
	}

	dup := make([]geom.Point, 0, 150)
	for i := 0; i < 50; i++ {
		p := geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
		for j := 0; j < 3; j++ {
			dup = append(dup, p)
		}
	}
	sets["duplicates"] = dup

	col := make([]geom.Point, 120)
	for i := range col {
		col[i] = geom.Pt(float64(i%40)*7.5, 0)
	}
	sets["collinear"] = col

	tiny := make([]geom.Point, 60)
	for i := range tiny {
		tiny[i] = geom.Pt(400+rnd.Float64()*1e-6, 400+rnd.Float64()*1e-6)
	}
	sets["single-cell"] = tiny

	sets["single-point"] = []geom.Point{geom.Pt(3, 4)}

	clustered := make([]geom.Point, 0, 160)
	for c := 0; c < 4; c++ {
		cx, cy := rnd.Float64()*800, rnd.Float64()*800
		for i := 0; i < 40; i++ {
			clustered = append(clustered, geom.Pt(cx+rnd.NormFloat64()*5, cy+rnd.NormFloat64()*5))
		}
	}
	sets["clustered"] = clustered

	return sets
}

// queries yields probe points both on and off the data's bounding box,
// including every data point that lies on the box's edge and points
// slid along each edge. Cell bounds are recomputed from the grid
// origin, which rounds differently from bucketing a point, so the
// edge is where a pruning test is most likely to skip a bucket that
// holds the answer.
func queries(pts []geom.Point, rnd *rand.Rand) []geom.Point {
	b := geom.Bounds(pts)
	qs := []geom.Point{
		b.Min, b.Max, b.Center(),
		geom.Pt(b.Min.X-100, b.Min.Y-100), // far outside
		geom.Pt(b.Max.X+1, b.Center().Y),
		pts[0], pts[len(pts)-1], // exact hits
	}
	for _, p := range pts {
		if p.X == b.Min.X || p.X == b.Max.X || p.Y == b.Min.Y || p.Y == b.Max.Y {
			qs = append(qs, p)
		}
	}
	for i := 0; i < 5; i++ {
		x := b.Min.X + rnd.Float64()*b.Width()
		y := b.Min.Y + rnd.Float64()*b.Height()
		qs = append(qs,
			geom.Pt(b.Min.X, y), geom.Pt(b.Max.X, y),
			geom.Pt(x, b.Min.Y), geom.Pt(x, b.Max.Y))
	}
	for i := 0; i < 25; i++ {
		qs = append(qs, geom.Pt(
			b.Min.X+(rnd.Float64()*1.4-0.2)*math.Max(b.Width(), 1),
			b.Min.Y+(rnd.Float64()*1.4-0.2)*math.Max(b.Height(), 1)))
	}
	return qs
}

func TestNearestMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for name, pts := range pointSets(rnd) {
		g := New(pts)
		for qi, q := range queries(pts, rnd) {
			gi, gd := g.Nearest(q)
			bi, bd := bruteNearest(pts, nil, q)
			if gi != bi || gd != bd {
				t.Errorf("%s query %d: grid (%d, %v) != brute (%d, %v)", name, qi, gi, gd, bi, bd)
			}
		}
	}
}

func TestKNearestMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for name, pts := range pointSets(rnd) {
		g := New(pts)
		for _, k := range []int{0, 1, 2, 3, 7, len(pts) / 2, len(pts), len(pts) + 5} {
			for qi, q := range queries(pts, rnd) {
				got := g.KNearest(q, k, nil)
				want := bruteKNearest(pts, nil, q, k)
				if !equalInts(got, want) {
					t.Errorf("%s k=%d query %d: grid %v != brute %v", name, k, qi, got, want)
				}
			}
		}
	}
}

// TestRemoveMatchesBrute interleaves removals with queries, mirroring
// the consuming searches in tour construction and mule matching.
func TestRemoveMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for name, pts := range pointSets(rnd) {
		g := New(pts)
		alive := make([]bool, len(pts))
		for i := range alive {
			alive[i] = true
		}
		order := rnd.Perm(len(pts))
		for step, rm := range order {
			g.Remove(rm)
			g.Remove(rm) // double-remove must be a no-op
			alive[rm] = false
			q := geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
			gi, gd := g.Nearest(q)
			bi, bd := bruteNearest(pts, alive, q)
			if gi != bi || gd != bd {
				t.Fatalf("%s step %d: grid (%d, %v) != brute (%d, %v)", name, step, gi, gd, bi, bd)
			}
			if got, want := g.KNearest(q, 3, nil), bruteKNearest(pts, alive, q, 3); !equalInts(got, want) {
				t.Fatalf("%s step %d: grid kNN %v != brute %v", name, step, got, want)
			}
		}
		if g.live != 0 {
			t.Fatalf("%s: %d live points after removing all", name, g.live)
		}
		if i, _ := g.Nearest(geom.Pt(0, 0)); i != -1 {
			t.Fatalf("%s: Nearest on empty grid returned %d", name, i)
		}
		if got := g.KNearest(geom.Pt(0, 0), 2, nil); len(got) != 0 {
			t.Fatalf("%s: KNearest on empty grid returned %v", name, got)
		}
	}
}

func TestRebuildReuses(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	g := New([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	g.Remove(0)
	for round := 0; round < 10; round++ {
		n := 1 + rnd.Intn(300)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*500, rnd.Float64()*500)
		}
		g.Rebuild(pts)
		if g.live != n {
			t.Fatalf("round %d: %d live points after Rebuild over %d points", round, g.live, n)
		}
		q := geom.Pt(rnd.Float64()*500, rnd.Float64()*500)
		gi, _ := g.Nearest(q)
		bi, _ := bruteNearest(pts, nil, q)
		if gi != bi {
			t.Fatalf("round %d: grid %d != brute %d", round, gi, bi)
		}
	}
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New over an empty point set did not panic")
		}
	}()
	New(nil)
}

func equalInts(a, b []int) bool {
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
