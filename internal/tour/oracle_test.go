package tour

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/hull"
	"tctp/internal/xrand"
)

// ConvexHullInsertionBrute is the original quadratic-scan
// implementation of ConvexHullInsertion, retained as the reference the
// accelerated path must reproduce bit-for-bit and as the baseline for
// the BenchmarkPlan* speedup measurements.
func ConvexHullInsertionBrute(pts []geom.Point) Tour {
	n := len(pts)
	switch n {
	case 0:
		return Tour{}
	case 1:
		return Tour{0}
	case 2:
		return Tour{0, 1}
	}

	used := make([]bool, n)
	t := make(Tour, 0, n)
	for _, h := range hull.Convex(pts) {
		// Rematch each hull vertex's point to an index by linear scan,
		// so the skeleton does not take hull.Convex's indices on
		// trust: the first unused match, so every index is inserted
		// once.
		hp := pts[h]
		for i, p := range pts {
			if !used[i] && p == hp {
				t = append(t, i)
				used[i] = true
				break
			}
		}
	}

	var remaining []int
	for i := 0; i < n; i++ {
		if !used[i] {
			remaining = append(remaining, i)
		}
	}

	// Cheapest insertion: repeatedly pick the (point, edge) pair with
	// the globally smallest detour. O(k²·|t|) overall, fine for the
	// target counts in the paper's experiments (≤ a few hundred).
	for len(remaining) > 0 {
		bestPoint, bestPos := -1, -1
		bestCost := math.Inf(1)
		for ri, pi := range remaining {
			p := pts[pi]
			for j := range t {
				a := pts[t[j]]
				b := pts[t[(j+1)%len(t)]]
				if c := geom.DetourCost(a, b, p); c < bestCost {
					bestCost = c
					bestPoint = ri
					bestPos = j + 1
				}
			}
		}
		pi := remaining[bestPoint]
		remaining = append(remaining[:bestPoint], remaining[bestPoint+1:]...)
		t = append(t, 0)
		copy(t[bestPos+1:], t[bestPos:])
		t[bestPos] = pi
	}
	return EnsureCCW(pts, t)
}

// nearestNeighborScan is the linear-scan construction NearestNeighbor
// must reproduce bit-for-bit: each step takes the first unvisited
// index at the strictly smallest squared distance. start must be in
// range when pts is non-empty.
func nearestNeighborScan(pts []geom.Point, start int) Tour {
	n := len(pts)
	if n == 0 {
		return Tour{}
	}
	visited := make([]bool, n)
	t := make(Tour, 0, n)
	cur := start
	visited[cur] = true
	t = append(t, cur)
	for len(t) < n {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if visited[i] {
				continue
			}
			if d := pts[cur].Dist2(pts[i]); d < bestD {
				best, bestD = i, d
			}
		}
		visited[best] = true
		t = append(t, best)
		cur = best
	}
	return t
}

// greedyEdgeSort is the sort-all-edges construction GreedyEdge must
// reproduce bit-for-bit: every edge sorted by (squared length, u, v),
// then the same acceptance loop.
func greedyEdgeSort(pts []geom.Point) Tour {
	n := len(pts)
	if n == 0 {
		return Tour{}
	}
	if n == 1 {
		return Tour{0}
	}

	type edge struct {
		u, v int
		d    float64
	}
	edges := make([]edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j, pts[i].Dist2(pts[j])})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].d != edges[b].d {
			return edges[a].d < edges[b].d
		}
		if edges[a].u != edges[b].u {
			return edges[a].u < edges[b].u
		}
		return edges[a].v < edges[b].v
	})

	uf := newUnionFind(n)
	degree := make([]int, n)
	adj := make([][]int, n)
	accepted := 0
	for _, e := range edges {
		if accepted == n-1 {
			break
		}
		if degree[e.u] >= 2 || degree[e.v] >= 2 {
			continue
		}
		if uf.find(e.u) == uf.find(e.v) {
			continue // would close a subcycle early
		}
		uf.union(e.u, e.v)
		degree[e.u]++
		degree[e.v]++
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
		accepted++
	}

	return walkPath(n, degree, adj)
}

// BruteForce returns a provably optimal circuit by exhaustive search.
// It fixes index 0 as the start (circuits are rotation-invariant) and
// enumerates the (n−1)! remaining orders, so it is only usable as a
// test oracle for small n; it panics for n > 10.
func BruteForce(pts []geom.Point) Tour {
	n := len(pts)
	if n > 10 {
		panic(fmt.Sprintf("tour: BruteForce with %d points (max 10)", n))
	}
	if n == 0 {
		return Tour{}
	}
	best := make(Tour, n)
	for i := range best {
		best[i] = i
	}
	if n < 4 {
		return best
	}
	bestLen := Length(pts, best)

	perm := make(Tour, n)
	copy(perm, best)
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if l := Length(pts, perm); l < bestLen {
				bestLen = l
				copy(best, perm)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(1) // index 0 stays fixed
	return best
}

// HasProperCrossing reports whether any two non-adjacent tour edges
// properly cross. A 2-opt-optimal Euclidean tour never has one
// (uncrossing two edges always shortens the tour), which the property
// tests exploit.
func HasProperCrossing(pts []geom.Point, t Tour) bool {
	n := len(t)
	if n < 4 {
		return false
	}
	edge := func(i int) geom.Segment {
		return geom.Segment{A: pts[t[i]], B: pts[t[(i+1)%n]]}
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if i == 0 && j == n-1 {
				continue // adjacent around the wrap
			}
			if edge(i).ProperlyIntersects(edge(j)) {
				return true
			}
		}
	}
	return false
}

// BenchmarkPlanConvexHullInsertionBrute measures the quadratic-rescan
// oracle on the BenchmarkPlanConvexHullInsertion inputs, so the ratio
// between the two is the accelerated path's speedup. It stops at 1k:
// its cheapest-insertion rescan is Θ(n³)-ish DetourCost evaluations,
// and a single 10k iteration takes minutes. It is not gated.
func BenchmarkPlanConvexHullInsertionBrute(b *testing.B) {
	for _, n := range []int{100, 1_000} {
		pts := randomPoints(xrand.New(7), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ConvexHullInsertionBrute(pts)
			}
		})
	}
}
