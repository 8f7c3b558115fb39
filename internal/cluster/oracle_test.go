package cluster

import (
	"fmt"
	"math"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// KMeansBrute is the original KMeans implementation — full-recompute
// k-means++ seeding and linear-scan Lloyd assignment — retained as the
// reference the indexed path must reproduce bit-for-bit and as the
// baseline for the BenchmarkPlan* speedup measurements. Given sources
// seeded identically, KMeans and KMeansBrute return identical
// assignments.
func KMeansBrute(pts []geom.Point, k int, src *xrand.Source, maxIter int) []int {
	n := len(pts)
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: KMeans k=%d with %d points", k, n))
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	centres := seedPlusPlusBrute(pts, k, src)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
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

// seedPlusPlusBrute is the original k-means++ seeding with a full
// nearest-centre recompute every round, retained as the reference for
// the incremental path.
func seedPlusPlusBrute(pts []geom.Point, k int, src *xrand.Source) []geom.Point {
	centres := make([]geom.Point, 0, k)
	centres = append(centres, pts[src.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centres) < k {
		total := 0.0
		for i, p := range pts {
			best := math.Inf(1)
			for _, c := range centres {
				if d := p.Dist2(c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centres; duplicate
			// arbitrary points to fill.
			centres = append(centres, pts[src.Intn(len(pts))])
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
		centres = append(centres, pts[chosen])
	}
	return centres
}

// cost returns the total within-cluster sum of squared distances to
// the cluster centroids: the k-means objective.
func cost(pts []geom.Point, assign []int, k int) float64 {
	counts := make([]int, k)
	sums := make([]geom.Vec, k)
	for i, p := range pts {
		c := assign[i]
		counts[c]++
		sums[c] = geom.Vec{X: sums[c].X + p.X, Y: sums[c].Y + p.Y}
	}
	centres := make([]geom.Point, k)
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			centres[c] = geom.Pt(sums[c].X/float64(counts[c]), sums[c].Y/float64(counts[c]))
		}
	}
	total := 0.0
	for i, p := range pts {
		total += p.Dist2(centres[assign[i]])
	}
	return total
}

// BenchmarkPlanKMeansBrute measures the brute oracle on the
// BenchmarkPlanKMeans inputs, so the ratio between the two is the
// indexed path's speedup. It is not gated; n=10k is skipped under
// -short.
func BenchmarkPlanKMeansBrute(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		src := xrand.New(7)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
		}
		k := n / 20
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n >= 10_000 && testing.Short() {
				b.Skipf("n=%d skipped under -short", n)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KMeansBrute(pts, k, xrand.New(11), 20)
			}
		})
	}
}
