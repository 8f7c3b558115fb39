// Package tour constructs Hamiltonian circuits (closed tours) over a
// set of target points. The paper's planners all start from "the same
// Hamiltonian Circuit [constructed] based on a convex hull concept
// proposed in [5]" (§2.2-A); ConvexHullInsertion implements that
// construction. Alternative constructions (nearest neighbour, greedy
// edge, random) and a 2-opt improver are provided for the ablation
// experiments and as independent cross-checks in tests.
//
// A Tour is a permutation of point indices; the circuit implicitly
// closes from the last index back to the first.
package tour

import (
	"fmt"
	"math"

	"tctp/internal/geom"
	"tctp/internal/geom/index"
	"tctp/internal/hull"
)

// Tour is an ordering of point indices forming a Hamiltonian circuit.
type Tour []int

// Length returns the total length of the closed tour over pts.
func Length(pts []geom.Point, t Tour) float64 {
	if len(t) < 2 {
		return 0
	}
	total := 0.0
	for i := range t {
		total += pts[t[i]].Dist(pts[t[(i+1)%len(t)]])
	}
	return total
}

// Validate checks that t is a permutation of [0, n). A nil error means
// the tour visits each of the n targets exactly once.
func Validate(t Tour, n int) error {
	if len(t) != n {
		return fmt.Errorf("tour: length %d, want %d", len(t), n)
	}
	seen := make([]bool, n)
	for i, v := range t {
		if v < 0 || v >= n {
			return fmt.Errorf("tour: index %d at position %d out of range [0,%d)", v, i, n)
		}
		if seen[v] {
			return fmt.Errorf("tour: index %d visited twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Reverse returns the tour traversed in the opposite direction,
// keeping the same starting element.
func Reverse(t Tour) Tour {
	out := make(Tour, len(t))
	if len(t) == 0 {
		return out
	}
	out[0] = t[0]
	for i := 1; i < len(t); i++ {
		out[i] = t[len(t)-i]
	}
	return out
}

// SignedArea returns the signed area swept by the closed tour
// (shoelace). Positive means counterclockwise traversal.
func SignedArea(pts []geom.Point, t Tour) float64 {
	n := len(t)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		a, b := pts[t[i]], pts[t[(i+1)%n]]
		sum += float64(a.X*b.Y) - float64(b.X*a.Y)
	}
	return sum / 2
}

// EnsureCCW returns the tour oriented counterclockwise (the traversal
// direction used throughout the paper). Degenerate tours are returned
// unchanged.
func EnsureCCW(pts []geom.Point, t Tour) Tour {
	if SignedArea(pts, t) < 0 {
		return Reverse(t)
	}
	return t
}

// hullSkeleton builds the initial convex-hull cycle of
// ConvexHullInsertion: the hull's vertex indices, each the lowest index
// holding its coordinates (see hull.Convex), plus every other index
// (interior points and duplicates of hull vertices) in ascending
// order. The hull of n ≥ 1 points has at
// least one vertex, so the cycle is never empty.
func hullSkeleton(pts []geom.Point) (t Tour, remaining []int) {
	n := len(pts)
	t = hull.Convex(pts)
	used := make([]bool, n)
	for _, i := range t {
		used[i] = true
	}
	remaining = make([]int, 0, n-len(t))
	for i := 0; i < n; i++ {
		if !used[i] {
			remaining = append(remaining, i)
		}
	}
	return t, remaining
}

// ConvexHullInsertion builds a circuit with the convex-hull-and-
// insertion heuristic attributed to Wu et al. [5]: the convex hull of
// the targets forms the initial skeleton cycle, then each remaining
// interior target is inserted — cheapest insertion first — at the
// position that minimizes the added detour. The resulting tour is
// oriented counterclockwise. This is the "CHB" construction used by
// both the paper's planners and the CHB baseline.
//
// The skeleton is hull.Convex's vertex indices as they come, so no
// hull vertex is matched back to the input. The selection is
// accelerated by caching, per remaining point, its cheapest (detour,
// edge) pair and repairing only the caches the last insertion
// invalidated; the result is bit-identical to the quadratic-rescan
// oracle in oracle_test.go, which rematches the hull's points to
// indices by linear scan (see the equivalence tests).
func ConvexHullInsertion(pts []geom.Point) Tour {
	n := len(pts)
	switch n {
	case 0:
		return Tour{}
	case 1:
		return Tour{0}
	case 2:
		return Tour{0, 1}
	}
	t, remaining := hullSkeleton(pts)

	// Per remaining point: the smallest detour over the current tour
	// edges and the FIRST edge index attaining it — exactly what the
	// brute scan's strict-< loop tracks. Edge j is (t[j], t[j+1 mod]).
	cost := make([]float64, n)
	edge := make([]int32, n)
	rescan := func(pi int) {
		p := pts[pi]
		bc, be := math.Inf(1), int32(-1)
		for j := range t {
			a := pts[t[j]]
			b := pts[t[(j+1)%len(t)]]
			if c := geom.DetourCost(a, b, p); c < bc {
				bc, be = c, int32(j)
			}
		}
		cost[pi], edge[pi] = bc, be
	}
	for _, pi := range remaining {
		rescan(pi)
	}

	for len(remaining) > 0 {
		// Global cheapest (point, edge): first point in remaining
		// order attaining the minimum cost, matching the brute outer
		// loop's strict-< scan.
		bestPoint := -1
		bestCost := math.Inf(1)
		for ri, pi := range remaining {
			if cost[pi] < bestCost {
				bestCost = cost[pi]
				bestPoint = ri
			}
		}
		pi := remaining[bestPoint]
		broken := edge[pi] // edge index destroyed by the insertion
		bestPos := int(broken) + 1
		remaining = append(remaining[:bestPoint], remaining[bestPoint+1:]...)
		t = append(t, 0)
		copy(t[bestPos+1:], t[bestPos:])
		t[bestPos] = pi

		if len(remaining) == 0 {
			break
		}
		// The insertion replaced edge `broken` with two edges at
		// indices broken (a→p) and broken+1 (p→b); edges before
		// `broken` keep their index, later ones shift by one. A cached
		// minimum survives unless its edge was the broken one; the two
		// new edges are merged in by (cost, edge index) lexicographic
		// minimum, which is what a fresh first-encounter strict-< scan
		// would report.
		a := pts[t[bestPos-1]]
		p := pts[pi]
		b := pts[t[(bestPos+1)%len(t)]]
		for _, qi := range remaining {
			if edge[qi] == broken {
				rescan(qi)
				continue
			}
			if edge[qi] > broken {
				edge[qi]++
			}
			q := pts[qi]
			if c := geom.DetourCost(a, p, q); c < cost[qi] || (c == cost[qi] && broken < edge[qi]) {
				cost[qi], edge[qi] = c, broken
			}
			if c := geom.DetourCost(p, b, q); c < cost[qi] || (c == cost[qi] && broken+1 < edge[qi]) {
				cost[qi], edge[qi] = c, broken+1
			}
		}
	}
	return EnsureCCW(pts, t)
}

// NearestNeighbor builds a circuit by repeatedly travelling to the
// closest unvisited target, starting from index start. The unvisited
// set lives in a spatial grid, and each step is a Nearest query plus a
// Remove. The grid breaks distance ties by the lower index, so the
// tour is bit-identical to a linear scan's strict-< first match (the
// oracle in oracle_test.go).
func NearestNeighbor(pts []geom.Point, start int) Tour {
	n := len(pts)
	if n == 0 {
		return Tour{}
	}
	if start < 0 || start >= n {
		panic(fmt.Sprintf("tour: NearestNeighbor start %d out of range", start))
	}
	g := index.New(pts)
	t := make(Tour, 0, n)
	cur := start
	g.Remove(cur)
	t = append(t, cur)
	for len(t) < n {
		best, _ := g.Nearest(pts[cur])
		g.Remove(best)
		t = append(t, best)
		cur = best
	}
	return t
}

// walkPath walks the Hamiltonian path assembled by the greedy-edge
// acceptance loop, starting from the first endpoint (degree < 2).
func walkPath(n int, degree []int, adj [][]int) Tour {
	start := 0
	for i := 0; i < n; i++ {
		if degree[i] < 2 {
			start = i
			break
		}
	}
	t := make(Tour, 0, n)
	prev := -1
	cur := start
	for len(t) < n {
		t = append(t, cur)
		next := -1
		for _, nb := range adj[cur] {
			if nb != prev {
				next = nb
				break
			}
		}
		if next == -1 {
			break
		}
		prev, cur = cur, next
	}
	return t
}

// geCand is one lazily generated candidate edge: the head of vertex
// src's neighbour stream, keyed for the global merge by (d, a, b) with
// a < b.
type geCand struct {
	d    float64
	a, b int32
	src  int32
}

func geLess(x, y geCand) bool {
	if x.d != y.d {
		return x.d < y.d
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// geStream lazily enumerates one vertex's neighbours in ascending
// (distance, index) order by re-querying KNearest with a doubling k.
// Re-queries return the same deterministic prefix, so pos carries
// over.
type geStream struct {
	buf []int
	pos int
	k   int
}

// next returns the stream's next neighbour of u, or ok=false when all
// n−1 neighbours have been emitted.
func (s *geStream) next(g *index.Grid, pts []geom.Point, u, n int) (nb int, d float64, ok bool) {
	for {
		for s.pos < len(s.buf) {
			v := s.buf[s.pos]
			s.pos++
			if v != u {
				return v, pts[u].Dist2(pts[v]), true
			}
		}
		if s.k >= n {
			return 0, 0, false
		}
		if s.k == 0 {
			s.k = 8
		} else {
			s.k *= 2
		}
		if s.k > n {
			s.k = n
		}
		s.buf = g.KNearest(pts[u], s.k, s.buf[:0])
	}
}

// GreedyEdge builds a circuit by considering candidate edges in
// ascending length order and accepting each edge that keeps every
// vertex at degree ≤ 2 and creates no premature subcycle, finally
// closing the two loose ends. Union-find tracks connectivity.
//
// Each vertex contributes a sorted neighbour stream drawn lazily from
// k-nearest queries on a spatial grid, and a heap merges the stream
// heads, so candidate edges pop in ascending (d, u, v) order (a k-way
// merge of sorted runs). Only the short-edge prefix that the
// acceptance loop consumes is ever materialized. The tour is
// bit-identical to sorting all n(n−1)/2 edges (the oracle in
// oracle_test.go). Each undirected edge appears in two streams, and
// the second copy needs no bookkeeping: the acceptance checks only
// tighten (degrees never decrease, components only merge), so a copy
// the first pop accepted or rejected is rejected the second time. For
// the same reason a vertex's stream is abandoned once the vertex
// reaches degree 2: the degree check rejects every candidate it would
// still produce.
func GreedyEdge(pts []geom.Point) Tour {
	n := len(pts)
	switch n {
	case 0:
		return Tour{}
	case 1:
		return Tour{0}
	}
	g := index.New(pts)
	streams := make([]geStream, n)

	heap := make([]geCand, 0, n)
	push := func(c geCand) {
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !geLess(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() geCand {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && geLess(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && geLess(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	cand := func(u, v int, d float64, src int) geCand {
		a, b := int32(u), int32(v)
		if a > b {
			a, b = b, a
		}
		return geCand{d, a, b, int32(src)}
	}

	for u := 0; u < n; u++ {
		if v, d, ok := streams[u].next(g, pts, u, n); ok {
			push(cand(u, v, d, u))
		}
	}

	uf := newUnionFind(n)
	degree := make([]int, n)
	adj := make([][]int, n)
	accepted := 0
	for accepted < n-1 && len(heap) > 0 {
		c := pop()
		if u, v := int(c.a), int(c.b); degree[u] < 2 && degree[v] < 2 && uf.find(u) != uf.find(v) {
			uf.union(u, v)
			degree[u]++
			degree[v]++
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			accepted++
		}
		src := int(c.src)
		if degree[src] < 2 {
			if v, d, ok := streams[src].next(g, pts, src, n); ok {
				push(cand(src, v, d, src))
			}
		}
	}
	return walkPath(n, degree, adj)
}

// TwoOpt improves the tour with 2-opt moves (reversing a sub-path when
// that shortens the circuit) until no improving move exists. It
// returns a new tour; the input is not modified.
func TwoOpt(pts []geom.Point, t Tour) Tour {
	n := len(t)
	out := make(Tour, n)
	copy(out, t)
	if n < 4 {
		return out
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			a, b := pts[out[i]], pts[out[(i+1)%n]]
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // same edge pair
				}
				c, d := pts[out[j]], pts[out[(j+1)%n]]
				delta := a.Dist(c) + b.Dist(d) - a.Dist(b) - c.Dist(d)
				if delta < -geom.Eps {
					// Reverse out[i+1 .. j].
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						out[lo], out[hi] = out[hi], out[lo]
					}
					improved = true
					a, b = pts[out[i]], pts[out[(i+1)%n]]
				}
			}
		}
	}
	return out
}

// unionFind is a standard disjoint-set structure with path halving and
// union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
