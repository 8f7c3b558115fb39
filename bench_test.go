package tctp

import (
	"io"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/experiment"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/hull"
	"tctp/internal/patrol"
	"tctp/internal/sim"
	"tctp/internal/tour"
	"tctp/internal/xrand"
)

// The figure benchmarks run the full reproduction pipeline of each
// paper artifact at a reduced protocol (2 replications, shortened
// horizons) so `go test -bench=.` exercises every experiment end to
// end; cmd/tctp-experiments runs the full 20-replication protocol.

func benchParams() experiment.Params { return experiment.Params{Seeds: 2} }

// BenchmarkFig7DCDT regenerates paper Fig. 7 (DCDT vs. visit index for
// Random/Sweep/CHB/TCTP).
func BenchmarkFig7DCDT(b *testing.B) {
	cfg := experiment.Fig7Config{Targets: 15, Mules: 4, MaxVisits: 15, Horizon: 150_000}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(benchParams(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SD regenerates paper Fig. 8 (SD surface over targets ×
// mules, CHB vs TCTP).
func BenchmarkFig8SD(b *testing.B) {
	cfg := experiment.Fig8Config{Targets: []int{10, 20}, Mules: []int{2, 4}, Horizon: 30_000}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig8(benchParams(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9WTCTPDCDT regenerates paper Fig. 9 (average DCDT over
// #VIP × weight, Shortest vs Balancing policy).
func BenchmarkFig9WTCTPDCDT(b *testing.B) {
	cfg := experiment.WTCTPConfig{Targets: 12, Mules: 1, VIPs: []int{1, 3}, Weights: []int{2, 4}, Horizon: 60_000}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.WTCTPPolicies(benchParams(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10WTCTPSD regenerates paper Fig. 10 (average SD over
// #VIP × weight). The sweep is shared with Fig. 9; the benchmark
// keeps its own name so every figure has a dedicated target.
func BenchmarkFig10WTCTPSD(b *testing.B) {
	cfg := experiment.WTCTPConfig{Targets: 12, Mules: 1, VIPs: []int{1, 3}, Weights: []int{2, 4}, Horizon: 60_000}
	for i := 0; i < b.N; i++ {
		r, err := experiment.WTCTPPolicies(benchParams(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.SDBalancing.Z) == 0 {
			b.Fatal("empty SD surface")
		}
	}
}

// BenchmarkEnergyRWTCTP regenerates E5 (the §V energy-efficiency
// study: RW-TCTP vs recharge-less W-TCTP).
func BenchmarkEnergyRWTCTP(b *testing.B) {
	cfg := experiment.EnergyConfig{Targets: 12, Mules: 2, Capacity: 100_000, Horizon: 150_000}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Energy(benchParams(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryE6 regenerates E6 (end-to-end data delivery under
// each mechanism).
func BenchmarkDeliveryE6(b *testing.B) {
	cfg := experiment.DeliveryConfig{Targets: 10, Mules: 3, Horizon: 80_000}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Delivery(benchParams(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (A1–A5 of DESIGN.md) -------------------------------

func ablationCfg() experiment.AblationConfig {
	return experiment.AblationConfig{Targets: 12, Mules: 2, Horizon: 25_000}
}

// BenchmarkAblationTourHeuristics runs A1 (circuit constructions).
func BenchmarkAblationTourHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TourHeuristics(benchParams(), ablationCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBreakPolicy runs A2 (break-edge policies).
func BenchmarkAblationBreakPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BreakPolicies(benchParams(), ablationCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocationInit runs A3 (location initialization
// on/off).
func BenchmarkAblationLocationInit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.LocationInit(benchParams(), ablationCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDwell runs A4 (dwell sensitivity).
func BenchmarkAblationDwell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DwellSensitivity(benchParams(), ablationCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTraversal runs A5 (angle rule vs insertion order).
func BenchmarkAblationTraversal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Traversal(benchParams(), ablationCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks for the hot substrates -------------------------------

func randomPoints(n int) []geom.Point {
	src := xrand.New(7)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
	}
	return pts
}

// BenchmarkConvexHull measures the hull substrate (50 points).
func BenchmarkConvexHull(b *testing.B) {
	pts := randomPoints(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hull.Convex(pts)
	}
}

// BenchmarkHullInsertionTour measures the CHB circuit construction
// (50 points).
func BenchmarkHullInsertionTour(b *testing.B) {
	pts := randomPoints(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tour.ConvexHullInsertion(pts)
	}
}

// BenchmarkTwoOpt measures the 2-opt improver on a 50-point random
// tour.
func BenchmarkTwoOpt(b *testing.B) {
	pts := randomPoints(50)
	src := xrand.New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tour.TwoOpt(pts, tour.Tour(src.Perm(50)))
	}
}

// BenchmarkWPPConstruction measures the W-TCTP path construction with
// the balancing policy (20 targets, 3 VIPs of weight 4).
func BenchmarkWPPConstruction(b *testing.B) {
	s := field.Generate(field.Config{NumTargets: 20, NumMules: 2, Placement: field.Uniform},
		xrand.New(3))
	s.AssignVIPs(xrand.New(4), 3, 4)
	wt := &core.WTCTP{Policy: core.BalancingLength}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wt.BuildWPP(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationThroughput measures one 4-mule B-TCTP
// replication on a 20-target uniform field over 50 000 s: the shared
// circuit of the paper's figures, whose mules run ahead of the event
// heap on their own clocks and whose visit logs the recorder merges
// from one run per mule. BenchmarkSimulationEngine runs the same
// replication on the heap.
func BenchmarkSimulationThroughput(b *testing.B) {
	benchmarkThroughput(b, patrol.Options{Horizon: 50_000})
}

// BenchmarkSimulationEngine is BenchmarkSimulationThroughput with a
// no-op observer attached, which keeps every mule on the event heap:
// the engine path that observers, event schedules and batteries still
// take, and the oracle of the run-ahead path.
func BenchmarkSimulationEngine(b *testing.B) {
	benchmarkThroughput(b, patrol.Options{Horizon: 50_000, Observers: []patrol.Observer{patrol.ObserverFuncs{}}})
}

func benchmarkThroughput(b *testing.B, opts patrol.Options) {
	s := field.Generate(field.Config{NumTargets: 20, NumMules: 4, Placement: field.Uniform},
		xrand.New(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := patrol.Run(s, patrol.Planned(&core.BTCTP{}), opts, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalVisits() == 0 {
			b.Fatal("no visits")
		}
	}
}

// BenchmarkSimulationExclusive measures one Sweep replication on a
// 10-target, 8-mule uniform field at the default 100 000 s horizon:
// nearly one mule per target, the paper-grid cell where most visits
// come from a mule parked on a target of its own. Every mule runs ahead
// of the event heap on its own clock (patrol's run-ahead path) and
// shares no target with another, so no visit log needs a merge.
func BenchmarkSimulationExclusive(b *testing.B) {
	s := field.Generate(field.Config{NumTargets: 10, NumMules: 8, Placement: field.Uniform},
		xrand.New(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := patrol.Run(s, patrol.Planned(&baseline.Sweep{}), patrol.Options{}, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalVisits() == 0 {
			b.Fatal("no visits")
		}
	}
}

// BenchmarkSimulationExclusiveRegions measures one Sweep replication
// on a 50-target, 4-mule uniform field at the default 100 000 s
// horizon: each mule runs ahead of the event heap around a region of
// about 12 stops, the multi-stop cycle that
// BenchmarkSimulationExclusive's parked mules never exercise.
func BenchmarkSimulationExclusiveRegions(b *testing.B) {
	s := field.Generate(field.Config{NumTargets: 50, NumMules: 4, Placement: field.Uniform},
		xrand.New(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := patrol.Run(s, patrol.Planned(&baseline.Sweep{}), patrol.Options{}, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalVisits() == 0 {
			b.Fatal("no visits")
		}
	}
}

// BenchmarkEventEngine measures the bare discrete-event engine.
func BenchmarkEventEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 1000 {
				eng.After(1, tick)
			}
		}
		eng.Schedule(0, tick)
		for eng.Step() {
		}
	}
}

// BenchmarkRegistrySmoke runs the cheapest registered experiment
// through the public facade, covering the registry path end to end.
func BenchmarkRegistrySmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment("a3-init", ExperimentParams{Seeds: 1}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
