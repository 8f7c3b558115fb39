// Package walk represents closed walks over a target set. A Walk is a
// cyclic sequence of target indices in which an index may occur more
// than once: a plain Hamiltonian circuit is a walk where every index
// occurs exactly once, while the paper's Weighted Patrolling Path
// (WPP, Definition 3) is a walk where VIP g_i occurs w_i times. The
// sub-walks between consecutive occurrences of g_i are exactly the w_i
// "cycles intersecting at g_i" of the paper — CyclesAt recovers them.
//
// The package also implements the geometric services the planners
// need on top of a walk: total length, arc-length lookup, rotation to
// the most-north target (the anchor of B-TCTP's start-point
// partition), and the equal-length partition itself.
package walk

import (
	"fmt"
	"math"

	"tctp/internal/geom"
)

// Walk is a closed walk over target indices. The walk implicitly
// closes from the last element back to the first. The zero value is an
// empty walk.
type Walk struct {
	// Seq is the visiting order. Seq[k] is the index (into the
	// scenario's point slice) of the k-th visited target.
	Seq []int
}

// New returns a walk over the given visiting order. The slice is
// copied.
func New(seq []int) Walk {
	s := make([]int, len(seq))
	copy(s, seq)
	return Walk{Seq: s}
}

// Clone returns a deep copy of the walk.
func (w Walk) Clone() Walk { return New(w.Seq) }

// Size returns the number of hops in the closed walk (equal to the
// number of sequence entries).
func (w Walk) Size() int { return len(w.Seq) }

// Points materializes the walk as the ordered point sequence (not
// closed; the caller knows the walk wraps).
func (w Walk) Points(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(w.Seq))
	for i, idx := range w.Seq {
		out[i] = pts[idx]
	}
	return out
}

// Length returns the total length of the closed walk.
func (w Walk) Length(pts []geom.Point) float64 {
	return geom.CycleLen(w.Points(pts))
}

// Occurrences returns how many times target idx appears in the walk.
func (w Walk) Occurrences(idx int) int {
	n := 0
	for _, v := range w.Seq {
		if v == idx {
			n++
		}
	}
	return n
}

// OccurrencePositions returns the positions (in increasing order) at
// which target idx appears.
func (w Walk) OccurrencePositions(idx int) []int {
	var out []int
	for i, v := range w.Seq {
		if v == idx {
			out = append(out, i)
		}
	}
	return out
}

// CyclesAt returns the cycles of the walk that intersect at target
// idx, per Definition 3: if idx occurs k times, the walk decomposes
// into k sub-walks, each starting and ending at idx. Every returned
// slice begins and ends with idx (so a cycle of length m hops has m+1
// entries). Returns nil if idx does not occur.
func (w Walk) CyclesAt(idx int) [][]int {
	pos := w.OccurrencePositions(idx)
	if len(pos) == 0 {
		return nil
	}
	n := len(w.Seq)
	cycles := make([][]int, 0, len(pos))
	for i, p := range pos {
		var next int
		if i+1 < len(pos) {
			next = pos[i+1]
		} else {
			next = pos[0] + n // wrap around
		}
		cyc := make([]int, 0, next-p+1)
		for j := p; j <= next; j++ {
			cyc = append(cyc, w.Seq[j%n])
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// CycleLengthsAt returns the geometric length of each cycle
// intersecting at idx, in the same order as CyclesAt. These are the
// len_i^k quantities of Definition 4 (the visiting interval of a VIP
// is cycle length divided by mule speed).
func (w Walk) CycleLengthsAt(pts []geom.Point, idx int) []float64 {
	cycles := w.CyclesAt(idx)
	out := make([]float64, len(cycles))
	for i, cyc := range cycles {
		var l float64
		for j := 1; j < len(cyc); j++ {
			l += pts[cyc[j-1]].Dist(pts[cyc[j]])
		}
		out[i] = l
	}
	return out
}

// Rotate returns the walk rotated so it begins at position pos.
func (w Walk) Rotate(pos int) Walk {
	n := len(w.Seq)
	if n == 0 {
		return w
	}
	pos = ((pos % n) + n) % n
	out := make([]int, 0, n)
	out = append(out, w.Seq[pos:]...)
	out = append(out, w.Seq[:pos]...)
	return Walk{Seq: out}
}

// RotateToNorthmost returns the walk rotated to begin at the first
// occurrence of the most-north target — the anchor of the paper's
// start-point partition ("each DM will treat the most north target
// point as the first start point", §2.2-B).
func (w Walk) RotateToNorthmost(pts []geom.Point) Walk {
	if len(w.Seq) == 0 {
		return w
	}
	wp := w.Points(pts)
	return w.Rotate(geom.Northmost(wp))
}

// closedPoints returns the walk's points with the first point
// replicated at the end, turning the cyclic walk into an explicit
// closed polyline for arc-length computations.
func (w Walk) closedPoints(pts []geom.Point) []geom.Point {
	p := w.Points(pts)
	if len(p) > 0 {
		p = append(p, p[0])
	}
	return p
}

// PointsAt returns the points at arc lengths ds along the closed walk,
// measured from the walk's first target; each d wraps modulo the walk
// length. The closed polyline and its total length are built once and
// shared by every query. It panics on an empty walk.
func (w Walk) PointsAt(pts []geom.Point, ds []float64) []geom.Point {
	closed := w.closedPoints(pts)
	if len(closed) == 0 {
		panic("walk: PointsAt on empty walk")
	}
	total := geom.PathLen(closed)
	out := make([]geom.Point, len(ds))
	for i, d := range ds {
		out[i] = pointAt(closed, total, d)
	}
	return out
}

// pointAt is the point at arc length d along a prebuilt closed
// polyline of length total,
// letting batch callers (StartPoints) pay for closedPoints and PathLen
// once instead of per query.
func pointAt(closed []geom.Point, total, d float64) geom.Point {
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

// StartPoints returns n points spaced |walk|/n apart along the closed
// walk, beginning at the walk's first target. These are the paper's
// "start points": the endpoints of the n equal-length segments that
// the patrolling path is partitioned into, one per data mule.
// It panics if n <= 0 or the walk is empty.
func (w Walk) StartPoints(pts []geom.Point, n int) []geom.Point {
	if n <= 0 {
		panic(fmt.Sprintf("walk: StartPoints with n=%d", n))
	}
	if len(w.Seq) == 0 {
		panic("walk: StartPoints on empty walk")
	}
	// One closed polyline and one length computation serve all n
	// queries; Length and PathLen(closedPoints) sum the same segment
	// distances in the same order, so the offsets are unchanged.
	closed := w.closedPoints(pts)
	total := geom.PathLen(closed)
	out := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		out[i] = pointAt(closed, total, float64(i)*total/float64(n))
	}
	return out
}

// ArcOffsets returns, for each position k in the walk, the arc-length
// distance from the walk start to target Seq[k]. The final closing
// edge is not included; offsets are strictly increasing when no two
// consecutive targets coincide.
func (w Walk) ArcOffsets(pts []geom.Point) []float64 {
	out := make([]float64, len(w.Seq))
	acc := 0.0
	for i := 1; i < len(w.Seq); i++ {
		acc += pts[w.Seq[i-1]].Dist(pts[w.Seq[i]])
		out[i] = acc
	}
	return out
}

// NearestOffset returns the arc-length offset (measured from the
// walk's first target) of the point on the closed walk nearest to p.
// The CHB baseline uses it to let each mule enter the circuit at its
// closest point instead of performing location initialization. It
// panics on an empty walk.
func (w Walk) NearestOffset(pts []geom.Point, p geom.Point) float64 {
	return w.NearestOffsets(pts, []geom.Point{p})[0]
}

// NearestOffsets is NearestOffset for a batch of query points in one
// polyline pass: the closed polyline, each segment's length, and the
// running arc offset are computed once and shared by every query,
// instead of once per query as a per-mule NearestOffset loop would.
// The result is bit-identical to calling NearestOffset per point —
// each query still scans segments in walk order and keeps the first
// strictly nearer projection (ties resolve to the earlier segment). It
// panics on an empty walk.
func (w Walk) NearestOffsets(pts []geom.Point, ps []geom.Point) []float64 {
	closed := w.closedPoints(pts)
	if len(closed) == 0 {
		panic("walk: NearestOffsets on empty walk")
	}
	bestOff := make([]float64, len(ps))
	bestDist := make([]float64, len(ps))
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
	}
	acc := 0.0
	for i := 1; i < len(closed); i++ {
		a, b := closed[i-1], closed[i]
		seg := geom.Segment{A: a, B: b}
		segLen := seg.Len()
		ab := b.Sub(a)
		for j, p := range ps {
			// Project p onto the segment to find the closest point
			// and its arc position.
			t := 0.0
			if segLen > 0 {
				t = p.Sub(a).Dot(ab) / (segLen * segLen)
				if t < 0 {
					t = 0
				}
				if t > 1 {
					t = 1
				}
			}
			q := a.Lerp(b, t)
			if d := p.Dist(q); d < bestDist[j] {
				bestDist[j] = d
				bestOff[j] = acc + float64(t*segLen)
			}
		}
		acc += segLen
	}
	total := acc
	for j, off := range bestOff {
		if total > 0 && off >= total {
			bestOff[j] = off - total
		}
	}
	return bestOff
}

// InsertAfter returns a new walk with target via inserted after
// position pos, replacing the edge (Seq[pos], Seq[pos+1]) by the pair
// (Seq[pos], via) and (via, Seq[pos+1]). This is the cycle-creation
// primitive of the WPP construction (§3.1: remove break edge e_y and
// connect both break points to the VIP).
func (w Walk) InsertAfter(pos, via int) Walk {
	n := len(w.Seq)
	if pos < 0 || pos >= n {
		panic(fmt.Sprintf("walk: InsertAfter position %d out of range [0,%d)", pos, n))
	}
	out := make([]int, 0, n+1)
	out = append(out, w.Seq[:pos+1]...)
	out = append(out, via)
	out = append(out, w.Seq[pos+1:]...)
	return Walk{Seq: out}
}

// Validate checks the walk against per-target required occurrence
// counts: target i must occur want[i] times (targets with want[i]==0
// must be absent). Passing nil want checks that the walk is a
// Hamiltonian circuit over n targets (each occurring exactly once).
func (w Walk) Validate(n int, want []int) error {
	counts := make([]int, n)
	for i, v := range w.Seq {
		if v < 0 || v >= n {
			return fmt.Errorf("walk: index %d at position %d out of range [0,%d)", v, i, n)
		}
		counts[v]++
	}
	for i, c := range counts {
		expect := 1
		if want != nil {
			expect = want[i]
		}
		if c != expect {
			return fmt.Errorf("walk: target %d occurs %d times, want %d", i, c, expect)
		}
	}
	return nil
}
