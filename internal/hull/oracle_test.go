package hull

import (
	"sort"

	"tctp/internal/geom"
)

// GrahamScan returns the convex hull of pts in counterclockwise order.
// It is an independent implementation that cross-validates Convex.
// The starting vertex is the bottom-most (then left-most) point, and
// the result is rotated so that it starts from the lexicographically
// smallest point, making it directly comparable with Convex.
func GrahamScan(pts []geom.Point) []geom.Point {
	distinct := dedupSorted(pts)
	n := len(distinct)
	if n < 3 {
		return distinct
	}

	// Pivot: lowest Y, then lowest X.
	pivot := distinct[0]
	for _, p := range distinct[1:] {
		if p.Y < pivot.Y || (p.Y == pivot.Y && p.X < pivot.X) {
			pivot = p
		}
	}

	rest := make([]geom.Point, 0, n-1)
	for _, p := range distinct {
		if p != pivot {
			rest = append(rest, p)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		o := geom.Orient(pivot, rest[i], rest[j])
		if o != geom.Collinear {
			return o == geom.Counterclockwise
		}
		return pivot.Dist2(rest[i]) < pivot.Dist2(rest[j])
	})

	stack := []geom.Point{pivot}
	for _, p := range rest {
		for len(stack) >= 2 && geom.Orient(stack[len(stack)-2], stack[len(stack)-1], p) != geom.Counterclockwise {
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, p)
	}
	if len(stack) < 3 {
		return stack
	}
	return rotateToLexMin(stack)
}

// containsPoint reports whether p lies inside or on the boundary of
// the convex polygon hull, whose vertices must be in counterclockwise
// order: the check behind the hull-contains-its-inputs properties.
func containsPoint(hull []geom.Point, p geom.Point) bool {
	n := len(hull)
	switch n {
	case 0:
		return false
	case 1:
		return hull[0].Eq(p)
	case 2:
		return geom.Segment{A: hull[0], B: hull[1]}.DistToPoint(p) <= geom.Eps
	}
	for i := 0; i < n; i++ {
		if geom.Orient(hull[i], hull[(i+1)%n], p) == geom.Clockwise {
			return false
		}
	}
	return true
}

// rotateToLexMin rotates the cyclic vertex list so it starts from the
// lexicographically smallest vertex.
func rotateToLexMin(h []geom.Point) []geom.Point {
	best := 0
	for i, p := range h {
		b := h[best]
		if p.X < b.X || (p.X == b.X && p.Y < b.Y) {
			best = i
		}
	}
	out := make([]geom.Point, 0, len(h))
	out = append(out, h[best:]...)
	out = append(out, h[:best]...)
	return out
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

// at maps hull vertex indices back to their points, so Convex can be
// compared with the point-valued GrahamScan oracle.
func at(pts []geom.Point, idx []int) []geom.Point {
	out := make([]geom.Point, len(idx))
	for k, i := range idx {
		out[k] = pts[i]
	}
	return out
}
