// Package hull computes planar convex hulls. The paper's Hamiltonian
// circuit construction (after Wu et al., MDM'09 — "a convex hull
// concept") starts from the convex hull of the target set and inserts
// the interior targets; this package supplies that hull.
//
// The hull is Andrew's monotone chain, O(n log n); the tests
// cross-check it against an independent Graham scan.
package hull

import (
	"sort"

	"tctp/internal/geom"
)

// Convex returns the convex hull of pts as indices into pts, in
// counterclockwise order starting from the lexicographically smallest
// point (min X, then min Y). Collinear points on hull edges are
// omitted, so the result is the minimal vertex set. Where several
// inputs share a vertex's coordinates, the lowest such index stands
// for the vertex. Inputs with fewer than three distinct points return
// the distinct points sorted lexicographically.
//
// The input slice is not modified.
func Convex(pts []geom.Point) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		p, q := pts[order[a]], pts[order[b]]
		if p.X != q.X {
			return p.X < q.X
		}
		if p.Y != q.Y {
			return p.Y < q.Y
		}
		return order[a] < order[b]
	})
	// Dedup equal coordinates; the (X, Y, index) order keeps the
	// lowest index of each run.
	sorted := order[:0]
	for k, i := range order {
		if k == 0 || pts[i] != pts[sorted[len(sorted)-1]] {
			sorted = append(sorted, i)
		}
	}
	n := len(sorted)
	if n < 3 {
		return sorted
	}

	// Andrew's monotone chain: build the lower hull left to right,
	// then the upper hull right to left.
	hull := make([]int, 0, 2*n)
	turnsLeft := func(i int) bool {
		return geom.Orient(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) == geom.Counterclockwise
	}
	for _, i := range sorted { // lower hull
		for len(hull) >= 2 && !turnsLeft(i) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	lower := len(hull) + 1
	for k := n - 2; k >= 0; k-- { // upper hull
		i := sorted[k]
		for len(hull) >= lower && !turnsLeft(i) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull[:len(hull)-1] // last vertex repeats the first
}
