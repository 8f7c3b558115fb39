// Package optimal is the reference-optimum layer: exact solvers for
// small patrolling instances and cheap lower bounds for large ones,
// so every heuristic planner in the repository can report an
// approximation ratio against a trusted denominator.
//
// Three tiers:
//
//   - Exact, small n. HeldKarp solves the optimal closed tour by
//     bitmask dynamic programming in O(n²·2ⁿ). The tests validate it
//     against the brute-force permutation oracle at small n and, up
//     to MaxExact, against MinDCDT, an independent branch-and-bound
//     search for the ordering minimizing the steady-state
//     data-collecting delay time.
//
//   - Lower bounds, any n. MST (Prim) and HullBound (convex-hull
//     perimeter) bound the optimal tour length from below: deleting
//     one edge of the optimal tour leaves a spanning tree, so
//     MST ≤ L*; and the perimeter of the convex hull of the points is
//     at most the length of any closed curve through them, so
//     hull ≤ L*. Conversely L* ≤ 2·MST (doubled-tree tour), which the
//     property tests pin.
//
//   - TourBound picks the best applicable tier: the exact Held-Karp
//     length up to ExactThreshold points, else max(hull, MST). The
//     induced interval bound (IntervalBound) divides a tour bound by
//     the visit weight and fleet speed, giving a per-target
//     steady-state visiting-interval floor for the DCDT ratio.
//
// Everything here is deterministic and allocation-bounded; nothing
// reads clocks or random sources, so ratios computed from these
// bounds are byte-identical across runs, workers, and shards.
package optimal

import (
	"fmt"
	"math"

	"tctp/internal/geom"
	"tctp/internal/hull"
	"tctp/internal/tour"
)

const (
	// MaxExact is the hard instance-size cap for the exact solvers.
	// Held-Karp is O(n²·2ⁿ) time and O(n·2ⁿ) memory; at n = 18 that
	// is ~2.2M states (≈20 MB) and well under a second. Beyond it the
	// exact tier would silently dominate a sweep, so HeldKarp and
	// MinDCDT panic instead.
	MaxExact = 18

	// ExactThreshold is the instance size up to which TourBound uses
	// the exact Held-Karp optimum; larger instances fall back to the
	// hull/MST lower bounds. It is below MaxExact so callers can still
	// request exact solutions slightly past the automatic tier.
	ExactThreshold = 15
)

// Bound is a lower bound on the optimal closed-tour length over a
// point set. Exact marks the bound as the optimum itself (the exact
// tier), making the derived ratio a true approximation ratio rather
// than an upper estimate of one.
type Bound struct {
	Value float64
	Exact bool
}

// TourBound returns the best applicable lower bound on the optimal
// closed-tour length over pts: the exact Held-Karp optimum for
// instances up to ExactThreshold points, else the larger of the
// convex-hull perimeter and the MST weight. Degenerate instances
// (n ≤ 1) have bound 0.
func TourBound(pts []geom.Point) Bound {
	if len(pts) <= 1 {
		return Bound{Exact: true}
	}
	if len(pts) <= ExactThreshold {
		_, l := HeldKarp(pts)
		return Bound{Value: l, Exact: true}
	}
	h := HullBound(pts)
	if m := MST(pts); m > h {
		return Bound{Value: m}
	}
	return Bound{Value: h}
}

// IntervalBound is the induced steady-state visiting-interval lower
// bound for one target: a fleet whose speeds sum to speedSum patrolling
// a closed walk of length ≥ tourLen cannot revisit a weight-w target
// more often than every tourLen/(w·speedSum) seconds on average. It
// returns 0 (no bound) for degenerate weights or speeds.
func IntervalBound(tourLen float64, weight int, speedSum float64) float64 {
	if weight <= 0 || speedSum <= 0 {
		return 0
	}
	return tourLen / (float64(weight) * speedSum)
}

// HeldKarp returns the optimal closed tour over pts and its length,
// by the Held-Karp bitmask dynamic program. The tour starts at index
// 0 and is canonicalized to the lexicographically smaller of the two
// traversal directions, so equal inputs produce identical slices. The
// returned length is recomputed with tour.Length, making it bit-
// comparable with every other tour length in the repository. Panics
// if len(pts) > MaxExact.
func HeldKarp(pts []geom.Point) (tour.Tour, float64) {
	n := len(pts)
	if n > MaxExact {
		panic(fmt.Sprintf("optimal: HeldKarp on %d points exceeds MaxExact %d", n, MaxExact))
	}
	if n < 3 {
		t := make(tour.Tour, n)
		for i := range t {
			t[i] = i
		}
		return t, tour.Length(pts, t)
	}

	// dp[mask][j] = shortest path 0 → … → city j+1 visiting exactly
	// the cities of mask (bit j ↦ city j+1; city 0 is the fixed
	// start and lives outside the mask).
	m := n - 1
	full := 1 << m
	dp := make([]float64, full*m)
	par := make([]int16, full*m)
	for i := range dp {
		dp[i] = math.Inf(1)
	}
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	for j := 0; j < m; j++ {
		dp[(1<<j)*m+j] = d(0, j+1)
		par[(1<<j)*m+j] = -1
	}
	for mask := 1; mask < full; mask++ {
		if mask&(mask-1) == 0 {
			continue // single-city masks are the base case
		}
		base := mask * m
		for j := 0; j < m; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			prev := (mask ^ (1 << j)) * m
			best, bestK := math.Inf(1), -1
			for k := 0; k < m; k++ {
				if mask&(1<<k) == 0 || k == j {
					continue
				}
				if c := dp[prev+k] + d(k+1, j+1); c < best {
					best, bestK = c, k
				}
			}
			dp[base+j] = best
			par[base+j] = int16(bestK)
		}
	}

	// Close the cycle back to city 0 and reconstruct.
	base := (full - 1) * m
	best, bestJ := math.Inf(1), -1
	for j := 0; j < m; j++ {
		if c := dp[base+j] + d(j+1, 0); c < best {
			best, bestJ = c, j
		}
	}
	t := make(tour.Tour, n)
	mask, j := full-1, bestJ
	for i := n - 1; i >= 1; i-- {
		t[i] = j + 1
		pj := par[mask*m+j]
		mask ^= 1 << j
		j = int(pj)
	}
	t[0] = 0
	canonicalize(t)
	return t, tour.Length(pts, t)
}

// canonicalize reflects a 0-rooted tour in place so that its second
// element is smaller than its last: of the two traversal directions
// of the same cycle, keep the lexicographically smaller. Tour length
// is direction-invariant, so this only fixes the representation.
func canonicalize(t tour.Tour) {
	if len(t) >= 3 && t[1] > t[len(t)-1] {
		for i, j := 1, len(t)-1; i < j; i, j = i+1, j-1 {
			t[i], t[j] = t[j], t[i]
		}
	}
}

// MST returns the total weight of the Euclidean minimum spanning tree
// over pts (Prim, O(n²)). It is a lower bound on the optimal closed-
// tour length: deleting any edge of the optimal tour leaves a
// spanning tree. 0 for n ≤ 1.
func MST(pts []geom.Point) float64 {
	n := len(pts)
	if n <= 1 {
		return 0
	}
	const unreached = math.MaxFloat64
	dist := make([]float64, n)
	inTree := make([]bool, n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[0] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best, bi := unreached, -1
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < best {
				best, bi = dist[i], i
			}
		}
		inTree[bi] = true
		total += best
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[bi].Dist(pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// HullBound returns the perimeter of the convex hull of pts — a lower
// bound on the length of any closed tour through them, since the hull
// is the shortest closed curve enclosing the point set. 0 for n ≤ 1
// (and for fully coincident points).
func HullBound(pts []geom.Point) float64 {
	if len(pts) <= 1 {
		return 0
	}
	return tour.Length(pts, hull.Convex(pts))
}
