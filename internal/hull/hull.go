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

// Convex returns the convex hull of pts in counterclockwise order
// starting from the lexicographically smallest point (min X, then min
// Y). Collinear points on hull edges are omitted, so the result is the
// minimal vertex set. Inputs with fewer than three distinct points
// return the distinct points sorted lexicographically.
//
// The input slice is not modified.
func Convex(pts []geom.Point) []geom.Point {
	sorted := dedupSorted(pts)
	n := len(sorted)
	if n < 3 {
		return sorted
	}

	// Andrew's monotone chain: build the lower hull left to right,
	// then the upper hull right to left.
	hull := make([]geom.Point, 0, 2*n)
	for _, p := range sorted { // lower hull
		for len(hull) >= 2 && geom.Orient(hull[len(hull)-2], hull[len(hull)-1], p) != geom.Counterclockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- { // upper hull
		p := sorted[i]
		for len(hull) >= lower && geom.Orient(hull[len(hull)-2], hull[len(hull)-1], p) != geom.Counterclockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1] // last point repeats the first
}

// Perimeter returns the length of the closed hull boundary.
func Perimeter(hull []geom.Point) float64 {
	return geom.CycleLen(hull)
}

// dedupSorted returns the distinct points sorted lexicographically
// (X, then Y) without modifying the input.
func dedupSorted(pts []geom.Point) []geom.Point {
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	out := sorted[:0]
	for i, p := range sorted {
		if i == 0 || p != sorted[i-1] {
			out = append(out, p)
		}
	}
	return out
}
