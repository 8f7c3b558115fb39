package tctp

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/cluster"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/sweep"
	"tctp/internal/tour"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

// --- planner hot-path benchmarks ------------------------------------------
//
// BenchmarkPlan* measures the spatially indexed planning substrates at
// n ∈ {100, 1k, 10k}. Their brute-force twins (BenchmarkPlan*Brute)
// time the test-only scan oracles the equivalence tests hold them to;
// the indexed and scan variants produce bit-identical
// tours/assignments, so the ratio between the two is pure speedup.
// The oracles live in _test.go files, so the twins sit in the packages
// that own them: the NearestNeighbor, GreedyEdge and
// ConvexHullInsertion twins in internal/tour, the KMeans twin in
// internal/cluster.

var planSizes = []int{100, 1_000, 10_000}

// skipLarge keeps the n=10k variants (seconds to minutes per op for
// the brute baselines) out of -short runs; CI's rot check executes
// every benchmark once under -short, while full local runs and the
// speedup measurements use the complete size ladder.
func skipLarge(b *testing.B, n int) {
	if n >= 10_000 && testing.Short() {
		b.Skipf("n=%d skipped under -short", n)
	}
}

func BenchmarkPlanNearestNeighbor(b *testing.B) {
	for _, n := range planSizes {
		pts := randomPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tour.NearestNeighbor(pts, 0)
			}
		})
	}
}

func BenchmarkPlanGreedyEdge(b *testing.B) {
	for _, n := range planSizes {
		pts := randomPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tour.GreedyEdge(pts)
			}
		})
	}
}

func BenchmarkPlanConvexHullInsertion(b *testing.B) {
	for _, n := range planSizes {
		pts := randomPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tour.ConvexHullInsertion(pts)
			}
		})
	}
}

func BenchmarkPlanKMeans(b *testing.B) {
	for _, n := range planSizes {
		pts := randomPoints(n)
		k := n / 20
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cluster.KMeans(pts, k, xrand.New(11), 20)
			}
		})
	}
}

// BenchmarkPlanFleet measures the end-to-end B-TCTP plan construction
// (circuit + start-point partition + location initialization + route
// assembly), the path the allocation audit trimmed.
func BenchmarkPlanFleet(b *testing.B) {
	for _, n := range planSizes {
		s := GenerateScenario(field.Config{NumTargets: n, NumMules: 8, Placement: field.Uniform},
			13)
		planner := &core.BTCTP{}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := planner.Plan(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanRegions measures the region pipeline (core.Regions:
// partition, per-region walks, mule allocation and matching, then each
// planner's placement) for the two partitioned TCTP planners at k=4
// and for Sweep, which makes one region per mule. One target in 50 is
// a weight-3 VIP, so C-WTCTP's regions get break-edge insertions.
func BenchmarkPlanRegions(b *testing.B) {
	kmeans4 := core.PartitionConfig{Method: core.KMeansMethod, K: 4}
	for _, n := range planSizes {
		s := GenerateScenario(field.Config{NumTargets: n, NumMules: 8, Placement: field.Clusters},
			23)
		s.AssignVIPs(xrand.New(29), n/50, 3)
		for _, p := range []struct {
			name    string
			planner core.Planner
		}{
			{"cbtctp-kmeans4", &core.CBTCTP{Config: kmeans4}},
			{"cwtctp-kmeans4", &core.CWTCTP{Config: kmeans4}},
			{"sweep", &baseline.Sweep{}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, p.name), func(b *testing.B) {
				skipLarge(b, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.planner.Plan(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanCHBAssign measures CHB's fleet-to-circuit assignment in
// its batched form (one NearestOffsets pass and one RoutesFromArcs
// pass for the whole fleet) next to the retained per-mule twin below.
// The assignments are bit-identical; the ratio is the cost of
// rebuilding the closed polyline, the segment lengths, and the
// arc-offset table once per mule instead of once per circuit.
func BenchmarkPlanCHBAssign(b *testing.B) {
	for _, n := range planSizes {
		s := GenerateScenario(field.Config{NumTargets: n, NumMules: 8, Placement: field.Uniform},
			19)
		pts := s.Points()
		w := walk.New(tour.EnsureCCW(pts, tour.ConvexHullInsertion(pts))).RotateToNorthmost(pts)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds := w.NearestOffsets(pts, s.MuleStarts)
				if routes := core.RoutesFromArcs(pts, w, ds); len(routes) != 8 {
					b.Fatal("short assignment")
				}
			}
		})
	}
}

func BenchmarkPlanCHBAssignPerMule(b *testing.B) {
	for _, n := range planSizes {
		s := GenerateScenario(field.Config{NumTargets: n, NumMules: 8, Placement: field.Uniform},
			19)
		pts := s.Points()
		w := walk.New(tour.EnsureCCW(pts, tour.ConvexHullInsertion(pts))).RotateToNorthmost(pts)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routes := make([]core.MuleRoute, len(s.MuleStarts))
				for m, start := range s.MuleStarts {
					routes[m] = core.RouteFromArc(pts, w, w.NearestOffset(pts, start))
				}
				if len(routes) != 8 {
					b.Fatal("short assignment")
				}
			}
		})
	}
}

// --- cell-level benchmarks -------------------------------------------------
//
// BenchmarkCell* measures one sweep cell end to end: replication
// execution plus the seed-ordered fold.

func cellSpec(targets, seeds, workers int) sweep.Spec {
	return sweep.Spec{
		Name:       "bench-cell",
		Algorithms: []sweep.Variant{sweep.Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{targets},
		Mules:      []int{4},
		Horizons:   []float64{20_000},
		Metrics:    []sweep.Metric{sweep.AvgDCDT(), sweep.AvgSD(), sweep.MaxInterval()},
		Seeds:      seeds,
		Workers:    workers,
	}
}

func BenchmarkCellReplications(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers=4", 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				spec := cellSpec(60, 8, cfg.workers)
				if _, err := sweep.Run(context.Background(), spec, sweep.CSV(&buf)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCellSimulation measures a single replication (plan + event
// simulation + recording) at growing target counts; the recorder's
// flat preallocation shows up in allocs/op here.
func BenchmarkCellSimulation(b *testing.B) {
	for _, n := range []int{100, 1_000} {
		s := GenerateScenario(field.Config{NumTargets: n, NumMules: 4, Placement: field.Uniform},
			17)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := patrol.Run(s, patrol.Planned(&core.BTCTP{}),
					patrol.Options{Horizon: 20_000}, xrand.New(1))
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalVisits() == 0 {
					b.Fatal("no visits")
				}
			}
		})
	}
}
