// Package index provides a uniform-grid spatial hash over a fixed
// planar point set — the sub-quadratic geometry substrate behind the
// planners' hot paths (nearest-neighbour and greedy-edge tours,
// k-means assignment). The paper's experiments stop at a few hundred
// targets, where O(n²) scans are harmless; the 10⁴–10⁵-target regimes
// that the partitioned planners open up need Nearest/KNearest queries
// in near-constant time per query. k-means keeps a linear scan below
// 32 centres, and core's mule-to-region matching and start-point
// assignment scan always: fleets are far too small for a grid to pay.
// The convex-hull skeleton needs no index at all: hull.Convex reports
// input indices directly.
//
// Every query breaks ties exactly like the brute-force scans it
// replaces: by (squared distance, ascending point index), with squared
// distances computed by the same geom.Point.Dist2. Replacing a linear
// scan that tracks the strict minimum with a Grid query is therefore
// bit-identical, which the planner equivalence tests pin.
//
// A Grid's query methods share internal scratch buffers, so a Grid is
// NOT safe for concurrent use. Planning code builds one Grid per Plan
// call (replications parallelize across independent plans, never
// within one), so this costs nothing in practice.
package index

import (
	"fmt"
	"math"

	"tctp/internal/geom"
)

// Grid is a uniform-grid spatial hash. Points are bucketed into square
// cells of equal edge length; queries scan outward ring by ring with
// exact rect-distance pruning, so they touch only the buckets that can
// still improve the answer.
type Grid struct {
	pts        []geom.Point
	cell       float64 // cell edge length (> 0)
	minX, minY float64
	cols, rows int

	// CSR bucket layout: the members of cell c are idx[start[c]:
	// start[c+1]], in ascending point-index order.
	start  []int32
	idx    []int32
	cellOf []int32 // point index → cell (for Remove)

	alive      []bool
	liveInCell []int32
	live       int

	// query scratch (see the package comment on concurrency)
	heap   []heapItem
	cursor []int32
}

type heapItem struct {
	d2 float64
	i  int32
}

// New builds a grid over pts with an automatic cell size (the bounding
// box edge divided by √n, clamping so the grid stays near one point
// per cell on uniform inputs). It panics on an empty point set.
func New(pts []geom.Point) *Grid {
	g := &Grid{}
	g.Rebuild(pts)
	return g
}

// Rebuild re-indexes the grid over a new point set, reusing the
// existing allocations where possible. Callers that build a fresh grid
// every iteration (k-means re-bucketing moving centres) amortize their
// bucket storage this way. The previous point set is forgotten;
// removed points are revived.
func (g *Grid) Rebuild(pts []geom.Point) {
	n := len(pts)
	if n == 0 {
		panic("index: Grid over an empty point set")
	}
	g.pts = pts
	b := geom.Bounds(pts)
	w, h := b.Width(), b.Height()
	extent := math.Max(w, h)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	if extent <= 0 {
		// All points coincide: one bucket is exact and cheap.
		g.cell, g.cols, g.rows = 1, 1, 1
	} else {
		g.cell = extent / float64(side)
		g.cols = int(w/g.cell) + 1
		g.rows = int(h/g.cell) + 1
	}
	g.minX, g.minY = b.Min.X, b.Min.Y

	nc := g.cols * g.rows
	g.start = grow(g.start, nc+1)
	g.idx = grow(g.idx, n)
	g.cellOf = grow(g.cellOf, n)
	g.liveInCell = grow(g.liveInCell, nc)
	if cap(g.alive) < n {
		g.alive = make([]bool, n)
	} else {
		g.alive = g.alive[:n]
	}
	for i := range g.start {
		g.start[i] = 0
	}

	// Counting sort into CSR buckets keeps each bucket in ascending
	// point-index order without a comparison sort.
	for i, p := range pts {
		c := int32(g.cellAt(p))
		g.cellOf[i] = c
		g.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.start[c+1] += g.start[c]
		g.liveInCell[c] = g.start[c+1] - g.start[c]
	}
	next := g.scratchCursor(nc)
	copy(next, g.start[:nc])
	for i := range pts {
		c := g.cellOf[i]
		g.idx[next[c]] = int32(i)
		next[c]++
		g.alive[i] = true
	}
	g.live = n
}

// scratchCursor returns a reusable int32 scratch slice of length n.
func (g *Grid) scratchCursor(n int) []int32 {
	if cap(g.cursor) < n {
		g.cursor = make([]int32, n)
	}
	return g.cursor[:n]
}

// Remove marks point i as deleted: it stops appearing in query
// results. Removing an already-removed point is a no-op.
func (g *Grid) Remove(i int) {
	if i < 0 || i >= len(g.pts) {
		panic(fmt.Sprintf("index: Remove(%d) of %d points", i, len(g.pts)))
	}
	if !g.alive[i] {
		return
	}
	g.alive[i] = false
	g.liveInCell[g.cellOf[i]]--
	g.live--
}

// cellAt maps a point to its bucket (clamped to the grid).
func (g *Grid) cellAt(p geom.Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// cellCoords returns the cell coordinates a query point's outward ring
// scan starts from, clamped to the grid. Queries may come from
// anywhere in the plane; clamping keeps the ring count bounded by the
// grid dimensions (a far-away query over a tiny grid would otherwise
// walk millions of empty rings), and the ring-distance bound in
// ringDist2 stays a valid lower bound for any anchor cell.
func (g *Grid) cellCoords(p geom.Point) (int, int) {
	cx := int(math.Floor((p.X - g.minX) / g.cell))
	cy := int(math.Floor((p.Y - g.minY) / g.cell))
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// cellDist2 returns the squared distance from q to the closest point
// of cell (cx, cy) — 0 when q lies inside it.
func (g *Grid) cellDist2(q geom.Point, cx, cy int) float64 {
	x0 := g.minX + float64(cx)*g.cell
	y0 := g.minY + float64(cy)*g.cell
	dx, dy := 0.0, 0.0
	if q.X < x0 {
		dx = x0 - q.X
	} else if q.X > x0+g.cell {
		dx = q.X - (x0 + g.cell)
	}
	if q.Y < y0 {
		dy = y0 - q.Y
	} else if q.Y > y0+g.cell {
		dy = q.Y - (y0 + g.cell)
	}
	return dx*dx + dy*dy
}

// ringDist2 returns the squared distance from q to the nearest point
// any cell of Chebyshev ring r (around cell (cx, cy)) can contain; 0
// for r == 0.
func (g *Grid) ringDist2(q geom.Point, cx, cy, r int) float64 {
	if r <= 0 {
		return 0
	}
	// The ring's cells lie outside the block of cells with Chebyshev
	// radius r−1; the closest they come to q is q's distance to that
	// block's boundary.
	x0 := g.minX + float64(cx-(r-1))*g.cell
	x1 := g.minX + float64(cx+r)*g.cell
	y0 := g.minY + float64(cy-(r-1))*g.cell
	y1 := g.minY + float64(cy+r)*g.cell
	d := math.Min(math.Min(q.X-x0, x1-q.X), math.Min(q.Y-y0, y1-q.Y))
	if d < 0 {
		// q outside the block (query point off-grid): the ring can
		// contain q itself.
		return 0
	}
	return d * d
}

// eachRingCell invokes fn for every in-grid cell of Chebyshev ring r
// around (cx, cy), in a fixed deterministic order. fn's order never
// affects query results (ties always resolve by (d2, index)), but a
// fixed order keeps the scan cache-friendly.
func (g *Grid) eachRingCell(cx, cy, r int, fn func(cell, x, y int)) {
	if r == 0 {
		if cx >= 0 && cx < g.cols && cy >= 0 && cy < g.rows {
			fn(cy*g.cols+cx, cx, cy)
		}
		return
	}
	x0, x1 := cx-r, cx+r
	y0, y1 := cy-r, cy+r
	for y := y0; y <= y1; y++ {
		if y < 0 || y >= g.rows {
			continue
		}
		if y == y0 || y == y1 {
			for x := x0; x <= x1; x++ {
				if x >= 0 && x < g.cols {
					fn(y*g.cols+x, x, y)
				}
			}
			continue
		}
		if x0 >= 0 && x0 < g.cols {
			fn(y*g.cols+x0, x0, y)
		}
		if x1 >= 0 && x1 < g.cols && x1 != x0 {
			fn(y*g.cols+x1, x1, y)
		}
	}
}

// maxRing returns the largest ring radius that still intersects the
// grid from cell (cx, cy).
func (g *Grid) maxRing(cx, cy int) int {
	r := cx
	if c := g.cols - 1 - cx; c > r {
		r = c
	}
	if c := cy; c > r {
		r = c
	}
	if c := g.rows - 1 - cy; c > r {
		r = c
	}
	return r
}

// Nearest returns the live point closest to q and its squared
// distance, breaking exact-distance ties by the smaller index —
// bit-identical to a linear scan tracking the strict minimum of
// Dist2. It returns (-1, +Inf) when every point has been removed.
func (g *Grid) Nearest(q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	cx, cy := g.cellCoords(q)
	maxR := g.maxRing(cx, cy)
	for r := 0; ; r++ {
		if r > maxR {
			break
		}
		if best >= 0 && g.ringDist2(q, cx, cy, r) > bestD {
			break
		}
		g.eachRingCell(cx, cy, r, func(cell, x, y int) {
			if g.liveInCell[cell] == 0 {
				return
			}
			if best >= 0 && g.cellDist2(q, x, y) > bestD {
				return
			}
			for _, pi := range g.idx[g.start[cell]:g.start[cell+1]] {
				if !g.alive[pi] {
					continue
				}
				if d := q.Dist2(g.pts[pi]); d < bestD || (d == bestD && int(pi) < best) {
					best, bestD = int(pi), d
				}
			}
		})
	}
	return best, bestD
}

// KNearest appends the indices of the k live points nearest to q onto
// dst, ordered by ascending (squared distance, index), and returns the
// extended slice. Fewer than k indices are returned when fewer live
// points exist. The ordering and membership are exactly those of a
// full sort of the live points by (Dist2, index).
func (g *Grid) KNearest(q geom.Point, k int, dst []int) []int {
	if k <= 0 || g.live == 0 {
		return dst
	}
	if k > g.live {
		k = g.live
	}
	h := g.heap[:0]
	worse := func(a, b heapItem) bool {
		// a sorts after b: larger distance, ties by larger index.
		if a.d2 != b.d2 {
			return a.d2 > b.d2
		}
		return a.i > b.i
	}
	push := func(it heapItem) {
		h = append(h, it)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if !worse(h[c], h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
	}
	sift := func() {
		c := 0
		for {
			l, rr := 2*c+1, 2*c+2
			m := c
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if rr < len(h) && worse(h[rr], h[m]) {
				m = rr
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	consider := func(it heapItem) {
		if len(h) < k {
			push(it)
			return
		}
		if worse(h[0], it) {
			h[0] = it
			sift()
		}
	}

	cx, cy := g.cellCoords(q)
	maxR := g.maxRing(cx, cy)
	for r := 0; r <= maxR; r++ {
		if len(h) == k && g.ringDist2(q, cx, cy, r) > h[0].d2 {
			break
		}
		g.eachRingCell(cx, cy, r, func(cell, x, y int) {
			if g.liveInCell[cell] == 0 {
				return
			}
			if len(h) == k && g.cellDist2(q, x, y) > h[0].d2 {
				return
			}
			for _, pi := range g.idx[g.start[cell]:g.start[cell+1]] {
				if g.alive[pi] {
					consider(heapItem{q.Dist2(g.pts[pi]), pi})
				}
			}
		})
	}

	// Heap-extract into ascending order: pop the worst into the tail.
	g.heap = h // keep the grown scratch
	out := len(dst)
	for range h {
		dst = append(dst, 0)
	}
	for end := len(h); end > 0; end-- {
		dst[out+end-1] = int(h[0].i)
		h[0] = h[end-1]
		h = h[:end-1]
		sift()
	}
	return dst
}

// grow returns s resized to n, reusing capacity.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
