// Package cluster partitions targets into groups for the Sweep
// baseline (Cheng et al., IPDPS'08), which "initially divides the DMs
// into several groups and then each DM individually patrols the
// targets of one group". Two partitioners are provided: k-means
// (Lloyd's algorithm with k-means++ seeding) and a deterministic
// angular sector partition around the centroid.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"tctp/internal/geom"
	"tctp/internal/geom/index"
	"tctp/internal/xrand"
)

// indexThreshold is the centre count from which the Lloyd assignment
// step queries a spatial grid over the centres, rebuilt each
// iteration, instead of a k-wide linear scan. Both sides carry
// traffic: the Sweep baseline on the §5.1 paper grid clusters into at
// most 8 regions (one per mule) on the scan, and the CI-gated
// BenchmarkPlanKMeans clusters 1000 points into 50 on the grid. The
// two are bit-identical: the grid breaks ties by (distance, index)
// exactly like the scan's strict <.
const indexThreshold = 32

// KMeans partitions pts into k groups with Lloyd's algorithm and
// returns the cluster index of each point. Seeding is k-means++
// (probability proportional to squared distance from the nearest
// chosen centre), driven by src for determinism. Empty clusters are
// re-seeded with the point farthest from its centre, so every cluster
// in the result is non-empty whenever k ≤ len(pts).
// It panics if k < 1 or k > len(pts).
func KMeans(pts []geom.Point, k int, src *xrand.Source, maxIter int) []int {
	n := len(pts)
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: KMeans k=%d with %d points", k, n))
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	centres := seedPlusPlus(pts, k, src)
	assign := make([]int, n)
	var g *index.Grid // grid over the centres, rebuilt each iteration
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		if k >= indexThreshold {
			if g == nil {
				g = index.New(centres)
			} else {
				g.Rebuild(centres)
			}
			for i, p := range pts {
				best, _ := g.Nearest(p)
				if assign[i] != best {
					assign[i] = best
					changed = true
				}
			}
		} else {
			for i, p := range pts {
				best, bestD := 0, math.Inf(1)
				for c, ctr := range centres {
					if d := p.Dist2(ctr); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[i] != best {
					assign[i] = best
					changed = true
				}
			}
		}

		// Recompute centres; re-seed empties with the globally
		// farthest point from its assigned centre.
		counts := make([]int, k)
		sums := make([]geom.Vec, k)
		for i, p := range pts {
			c := assign[i]
			counts[c]++
			sums[c] = geom.Vec{X: sums[c].X + p.X, Y: sums[c].Y + p.Y}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := p.Dist2(centres[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centres[c] = pts[far]
				assign[far] = c
				changed = true
				continue
			}
			centres[c] = geom.Pt(sums[c].X/float64(counts[c]), sums[c].Y/float64(counts[c]))
		}
		if !changed {
			break
		}
	}
	repairEmpty(pts, assign, centres)
	return assign
}

// repairEmpty enforces the non-empty guarantee after the Lloyd loop.
// The in-loop re-seeding can still end with empty clusters on
// degenerate inputs — e.g. duplicate-heavy point sets where two
// re-seeded centres coincide and the next assignment pass drains one
// of them. Each empty cluster steals the point farthest from its
// current centre among clusters that can spare one (ties by lower
// point index, so the repair is deterministic even when every
// distance is zero).
func repairEmpty(pts []geom.Point, assign []int, centres []geom.Point) {
	k := len(centres)
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	for c := 0; c < k; c++ {
		for counts[c] == 0 {
			far, farD := -1, -1.0
			for i, p := range pts {
				if counts[assign[i]] < 2 {
					continue
				}
				if d := p.Dist2(centres[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			if far < 0 {
				// Unreachable for k <= len(pts): k non-empty clusters
				// would need k points, and some cluster holds >= 2 while
				// any is empty.
				panic("cluster: cannot repair empty cluster")
			}
			counts[assign[far]]--
			assign[far] = c
			centres[c] = pts[far]
			counts[c]++
		}
	}
}

// seedPlusPlus picks k initial centres with the k-means++ rule.
//
// The nearest-chosen-centre distances are maintained incrementally:
// centres only ever get appended, so each point's distance to its
// nearest centre after adding one more is min(previous, distance to
// the new centre) — the same value the brute per-round recompute in
// seedPlusPlusBrute produces (non-negative floats, so the mins agree
// bit-for-bit), for O(nk) total instead of O(nk²). Both versions draw
// from src identically, so the chosen centres match exactly.
func seedPlusPlus(pts []geom.Point, k int, src *xrand.Source) []geom.Point {
	centres := make([]geom.Point, 0, k)
	centres = append(centres, pts[src.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	total := 0.0
	for i, p := range pts {
		d2[i] = p.Dist2(centres[0])
		total += d2[i]
	}
	addCentre := func(c geom.Point) {
		centres = append(centres, c)
		// Recompute the running total from scratch: the brute path
		// re-sums d2 in index order every round, and matching that
		// summation order keeps the total (and hence the threshold
		// comparison r <= acc) bit-identical.
		total = 0
		for i, p := range pts {
			if d := p.Dist2(c); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
	}
	for len(centres) < k {
		if total == 0 {
			// All remaining points coincide with centres; duplicate
			// arbitrary points to fill.
			addCentre(pts[src.Intn(len(pts))])
			continue
		}
		r := src.Float64() * total
		acc := 0.0
		chosen := len(pts) - 1
		for i, d := range d2 {
			acc += d
			if r <= acc {
				chosen = i
				break
			}
		}
		addCentre(pts[chosen])
	}
	return centres
}

// Sectors partitions pts into k angular sectors of equal point count
// around the centroid: points are sorted by polar angle and split into
// k consecutive runs of near-equal size. The partition is
// deterministic. It panics if k < 1 or k > len(pts).
func Sectors(pts []geom.Point, k int) []int {
	n := len(pts)
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: Sectors k=%d with %d points", k, n))
	}
	centre := geom.Centroid(pts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		aa := math.Atan2(pa.Y-centre.Y, pa.X-centre.X)
		ab := math.Atan2(pb.Y-centre.Y, pb.X-centre.X)
		if aa != ab {
			return aa < ab
		}
		return order[a] < order[b]
	})
	assign := make([]int, n)
	for rank, idx := range order {
		c := rank * k / n
		if c >= k {
			c = k - 1
		}
		assign[idx] = c
	}
	return assign
}

// Groups inverts an assignment into per-cluster member lists. Cluster
// c's members are Groups(assign, k)[c], in ascending index order.
func Groups(assign []int, k int) [][]int {
	out := make([][]int, k)
	for i, c := range assign {
		if c < 0 || c >= k {
			panic(fmt.Sprintf("cluster: assignment %d out of range [0,%d)", c, k))
		}
		out[c] = append(out[c], i)
	}
	return out
}
