// Package geom provides the planar geometry primitives used throughout
// the patrolling stack: points, vectors, distances, orientation tests,
// the counterclockwise included angle needed by W-TCTP's patrolling
// rule (§3.2 of the paper), and arc-length parameterization of
// polylines (needed to place equally spaced start points on a circuit,
// §2.2-B).
//
// All coordinates are in metres, matching the paper's 800 m × 800 m
// field.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric comparisons. Coordinates in
// this codebase are metres in an 800 m field, so 1e-9 is far below any
// physically meaningful distance while comfortably above float64 noise
// from the chains of additions we perform.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Lerp returns the point a fraction t of the way from p to q.
// t=0 yields p, t=1 yields q; t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	// Each product is rounded before the add, never fused into it.
	return Point{p.X + float64((q.X-p.X)*t), p.Y + float64((q.Y-p.Y)*t)}
}

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec) Len2() float64 { return float64(v.X*v.X) + float64(v.Y*v.Y) }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) }

// Cross returns the z-component of the 3-D cross product of v and w.
// It is positive when w is counterclockwise from v.
func (v Vec) Cross(w Vec) float64 { return float64(v.X*w.Y) - float64(v.Y*w.X) }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{float64(v.X * s), float64(v.Y * s)} }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vec{v.X / l, v.Y / l}
}

// Orientation classifies the turn p→q→r.
type Orientation int

// Turn directions returned by Orient.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	Counterclockwise Orientation = 1
)

// Orient returns the orientation of the ordered triple (p, q, r):
// Counterclockwise when r lies to the left of the directed line p→q.
func Orient(p, q, r Point) Orientation {
	c := q.Sub(p).Cross(r.Sub(p))
	switch {
	case c > Eps:
		return Counterclockwise
	case c < -Eps:
		return Clockwise
	default:
		return Collinear
	}
}

// CCWAngle returns the counterclockwise angle in [0, 2π) required to
// rotate vector from onto vector to. This is the "included angle ...
// in the counterclockwise direction" of the paper's patrolling rule: a
// data mule arriving at a VIP along direction d continues along the
// incident edge whose direction minimizes CCWAngle(-d, edge)
// measured counterclockwise. Zero vectors yield 0.
func CCWAngle(from, to Vec) float64 {
	a := math.Atan2(from.Cross(to), from.Dot(to))
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// Segment is a straight line segment between two points.
type Segment struct {
	A, B Point
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t along the segment from A to B.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// DistToPoint returns the minimum distance from point p to the
// segment.
func (s Segment) DistToPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	l2 := ab.Len2()
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(ab) / l2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(s.A.Add(ab.Scale(t)))
}

// ProperlyIntersects reports whether the segments cross at a single
// interior point of both (endpoint contact and collinear overlap do
// not count).
func (s Segment) ProperlyIntersects(t Segment) bool {
	d1 := Orient(t.A, t.B, s.A)
	d2 := Orient(t.A, t.B, s.B)
	d3 := Orient(s.A, s.B, t.A)
	d4 := Orient(s.A, s.B, t.B)
	return d1 != Collinear && d2 != Collinear && d3 != Collinear && d4 != Collinear &&
		d1 != d2 && d3 != d4
}

// DetourCost returns the extra length incurred by routing the edge
// (a, b) through via instead of directly: |a via| + |via b| − |a b|.
// This is the quantity minimized by the paper's Shortest-Length Policy
// (Exp. 1) and by the WRP break-edge selection (Exp. 3). It is always
// ≥ 0 by the triangle inequality.
func DetourCost(a, b, via Point) float64 {
	return a.Dist(via) + via.Dist(b) - a.Dist(b)
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and
// Max the upper-right corner.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two opposite corners given
// in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{float64((r.Min.X + r.Max.X) / 2), float64((r.Min.Y + r.Max.Y) / 2)}
}

// Bounds returns the bounding box of the points. It panics on an empty
// slice.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Centroid returns the arithmetic mean of the points. It panics on an
// empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}

// PathLen returns the total length of the open polyline through pts.
func PathLen(pts []Point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].Dist(pts[i])
	}
	return total
}

// CycleLen returns the total length of the closed polyline through
// pts (including the closing edge from the last point back to the
// first).
func CycleLen(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	return PathLen(pts) + pts[len(pts)-1].Dist(pts[0])
}

// PointAlong returns the point at arc-length distance d along the open
// polyline pts, together with the index of the segment containing it.
// d is clamped to [0, PathLen(pts)]. It panics on an empty polyline.
func PointAlong(pts []Point, d float64) (Point, int) {
	if len(pts) == 0 {
		panic("geom: PointAlong on empty polyline")
	}
	if d <= 0 || len(pts) == 1 {
		return pts[0], 0
	}
	for i := 1; i < len(pts); i++ {
		seg := pts[i-1].Dist(pts[i])
		if d <= seg+Eps {
			if seg == 0 {
				return pts[i], i - 1
			}
			return pts[i-1].Lerp(pts[i], d/seg), i - 1
		}
		d -= seg
	}
	return pts[len(pts)-1], len(pts) - 2
}

// Northmost returns the index of the point with the largest Y
// coordinate; ties are broken by the smaller X, then by the smaller
// index, so the result is deterministic. The paper's B-TCTP patrolling
// strategy anchors the start-point partition at "the most north target
// point" (§2.2-B). It panics on an empty slice.
func Northmost(pts []Point) int {
	if len(pts) == 0 {
		panic("geom: Northmost of empty point set")
	}
	best := 0
	for i, p := range pts[1:] {
		idx := i + 1
		b := pts[best]
		if p.Y > b.Y+Eps || (math.Abs(p.Y-b.Y) <= Eps && p.X < b.X-Eps) {
			best = idx
		}
	}
	return best
}
