package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/wsn"
	"tctp/internal/xrand"
)

// packetsWorkload is the conventional packet workload: one reading per
// node per minute, 50-packet buffers, a one-hour delivery deadline.
func packetsWorkload() scenario.Workload {
	return scenario.Workload{Name: "packets", Data: wsn.Config{
		GenInterval: 60, BufferCap: 50, Deadline: 3600,
	}}
}

// tinySpec is a fast multi-cell spec exercising two axes and two
// algorithm variants against the real simulator.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("random", patrol.Online(&baseline.Random{})),
		},
		Targets:  []int{6, 8},
		Mules:    []int{2},
		Horizons: []float64{4_000},
		Metrics:  []Metric{AvgDCDT(), AvgSD(), MaxInterval()},
		Seeds:    3,
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	if res.Runs != 4*3 {
		t.Fatalf("%d runs", res.Runs)
	}
	// Cells arrive in enumeration order: algorithm outermost, then
	// targets.
	wantOrder := []struct {
		alg     string
		targets int
	}{
		{"btctp", 6}, {"btctp", 8}, {"random", 6}, {"random", 8},
	}
	for i, w := range wantOrder {
		c := res.Cells[i]
		if c.Index != i || c.Point.Algorithm != w.alg || c.Point.Targets != w.targets {
			t.Fatalf("cell %d = %v", i, c.Point)
		}
		for _, m := range c.Metrics {
			if m.N != 3 {
				t.Fatalf("cell %d metric %s has n=%d", i, m.Name, m.N)
			}
		}
		if dcdt := c.Metric("avg_dcdt_s"); dcdt.Mean <= 0 {
			t.Fatalf("cell %d avg_dcdt_s mean %v", i, dcdt.Mean)
		}
	}
	// B-TCTP's steady-state SD is exactly zero; Random's is not.
	if sd := res.Cells[0].Metric("avg_sd_s"); sd.Mean > 1e-9 {
		t.Fatalf("btctp SD %v", sd.Mean)
	}
	if sd := res.Cells[2].Metric("avg_sd_s"); sd.Mean < 1 {
		t.Fatalf("random SD %v suspiciously low", sd.Mean)
	}
}

// The engine's core guarantee: bit-identical aggregates regardless of
// worker count, including the min/max/CI95 moments and sink bytes.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]string, 0, 3)
	results := make([]*Result, 0, 3)
	for _, workers := range []int{1, 4, 8} {
		spec := tinySpec()
		spec.Workers = workers
		spec.Seeds = 5
		var buf bytes.Buffer
		res, err := Run(context.Background(), spec, CSV(&buf), JSONL(&buf))
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
		results = append(results, res)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("sink bytes differ between workers=1 and the %d-th variant:\n%s\nvs\n%s",
				i, outputs[0], outputs[i])
		}
	}
	for i := 1; i < len(results); i++ {
		for c := range results[0].Cells {
			a, b := results[0].Cells[c], results[i].Cells[c]
			for m := range a.Metrics {
				if a.Metrics[m] != b.Metrics[m] {
					t.Fatalf("cell %d metric %v differs: %+v vs %+v",
						c, a.Metrics[m].Name, a.Metrics[m], b.Metrics[m])
				}
			}
		}
	}
}

func TestRunSkip(t *testing.T) {
	spec := tinySpec()
	spec.Mules = []int{2, 12} // 12 mules > targets+1 for both target counts
	spec.Skip = func(p Point) string {
		if p.Mules > p.Targets+1 {
			return "more mules than targets+1"
		}
		return ""
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || len(res.Skipped) != 4 {
		t.Fatalf("cells=%d skipped=%d", len(res.Cells), len(res.Skipped))
	}
	for _, sk := range res.Skipped {
		if sk.Point.Mules != 12 || sk.Reason == "" {
			t.Fatalf("skipped %+v", sk)
		}
	}
}

func TestRunVectorMetric(t *testing.T) {
	spec := Spec{
		Name:       "curve",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{6},
		Mules:      []int{2},
		Horizons:   []float64{8_000},
		Vectors:    []VectorMetric{DCDTCurve(10)},
		Seeds:      2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Cells[0].Vector("dcdt_curve")
	if len(vs.Mean) == 0 || len(vs.Mean) > 10 {
		t.Fatalf("curve length %d", len(vs.Mean))
	}
	for k, n := range vs.N {
		if n == 0 {
			t.Fatalf("position %d has no samples yet is inside the trimmed mean", k)
		}
	}
}

// TestRunVectorOfRawLog: a vector may return a slice of the
// recorder's own visit log. Each worker runs its next replication on
// the same scratch, recorder included, so the engine must copy the
// slice before that run overwrites it: the raw vector folds to exactly
// what a vector returning its own copy folds to.
func TestRunVectorOfRawLog(t *testing.T) {
	const n = 8
	spec := Spec{
		Name: "rawlog",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("sweep", patrol.Planned(&baseline.Sweep{})),
		},
		Targets:  []int{6, 10},
		Mules:    []int{2},
		Horizons: []float64{4_000},
		Vectors: []VectorMetric{
			{Name: "raw", Len: n, Fn: func(e Env) []float64 { return e.Result.Recorder.VisitTimes(0) }},
			{Name: "copy", Len: n, Fn: func(e Env) []float64 { return slices.Clone(e.Result.Recorder.VisitTimes(0)) }},
		},
		Seeds:   40,
		Workers: 4,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		raw, cp := c.Vector("raw"), c.Vector("copy")
		if len(cp.Mean) == 0 {
			t.Fatalf("cell %v: empty vector", c.Point)
		}
		if !slices.Equal(raw.N, cp.N) || !slices.Equal(raw.Mean, cp.Mean) {
			t.Fatalf("cell %v: raw log folds to %v %v, its copy to %v %v", c.Point, raw.N, raw.Mean, cp.N, cp.Mean)
		}
	}
}

// TestRunScratchValuesSurvive: one worker scratch runs every cell of a
// grid in turn, and each replication's values equal those of the same
// replication on a fresh scratch, bit for bit, and stay so after the
// scratch has run every later cell: nothing the engine keeps of a run
// aliases the scratch it ran on.
func TestRunScratchValuesSurvive(t *testing.T) {
	spec := Spec{
		Name: "scratch",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("random", patrol.Online(&baseline.Random{})),
			Algo("sweep", patrol.Planned(&baseline.Sweep{})),
		},
		Targets:  []int{50, 10},
		Mules:    []int{8, 2},
		Horizons: []float64{8_000},
		Failures: []Failure{{}, {Rate: 0.5, Handoff: "absorb"}},
		Metrics:  []Metric{AvgDCDT(), AvgSD(), MaxInterval(), GroupCount()},
		Vectors: []VectorMetric{
			{Name: "raw", Len: 6, Fn: func(e Env) []float64 { return e.Result.Recorder.VisitTimes(0) }},
			GroupDCDT(6),
		},
		Seeds: 1,
	}
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{spec: &j.spec, defs: j.defs, plans: j.plans}
	var rs runScratch
	var kept []*runValues
	for cell := range j.defs {
		got, err := e.runOne(job{cell: cell}, &rs)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, got)
	}
	for cell, got := range kept {
		want, err := e.runOne(job{cell: cell}, new(runScratch))
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(got, want) {
			t.Fatalf("cell %v: values %v %v after the scratch ran on, a fresh scratch's %v %v",
				j.defs[cell].point, got.scalars, got.vectors, want.scalars, want.vectors)
		}
	}
}

// sameValues reports whether two replications' values are bit-equal.
func sameValues(a, b *runValues) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !slices.EqualFunc(a.scalars, b.scalars, bits) || len(a.vectors) != len(b.vectors) {
		return false
	}
	for i := range a.vectors {
		if !slices.EqualFunc(a.vectors[i], b.vectors[i], bits) {
			return false
		}
	}
	return true
}

func TestRunError(t *testing.T) {
	spec := tinySpec()
	// An invalid scenario (no mules) fails inside patrol.Run.
	spec.Scenario = func(p Point, src *xrand.Source) *field.Scenario {
		s := mustGenerate(field.Config{NumTargets: p.Targets, NumMules: p.Mules}, src)
		if p.Targets == 8 {
			s.MuleStarts = nil
		}
		return s
	}
	_, err := Run(context.Background(), spec)
	if err == nil {
		t.Fatal("invalid cell accepted")
	}
	// The reported error names the first failing cell in enumeration
	// order (btctp, targets=8), not whichever worker failed first.
	if !strings.Contains(err.Error(), "targets=8") || !strings.Contains(err.Error(), "alg=btctp") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := tinySpec()
	spec.Seeds = 50
	n := 0
	spec.Progress = func(Progress) {
		n++
		if n == 3 {
			cancel()
		}
	}
	_, err := Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Spec{
		{},                                   // no variants
		{Algorithms: []Variant{{Name: "x"}}}, // no Make
		{Algorithms: []Variant{Algo("x", patrol.Planned(&core.BTCTP{}))}}, // no metrics
		{Algorithms: []Variant{Algo("x", patrol.Planned(&core.BTCTP{}))},
			Metrics: []Metric{AvgDCDT()}, VIPs: []int{2}, VIPWeights: []int{1}}, // weight < 2
		{Algorithms: []Variant{Algo("x", patrol.Planned(&core.BTCTP{}))},
			Vectors: []VectorMetric{{Name: "v", Len: 0}}}, // empty vector
		{Algorithms: []Variant{Algo("x", patrol.Planned(&core.BTCTP{}))},
			Metrics: []Metric{AvgDCDT()}, Workers: -1}, // would deadlock with no workers
	}
	for i, spec := range cases {
		if _, err := Run(context.Background(), spec); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRunProgress(t *testing.T) {
	spec := tinySpec()
	var last Progress
	calls := 0
	spec.Progress = func(p Progress) { last = p; calls++ }
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if calls != 12 {
		t.Fatalf("%d progress calls", calls)
	}
	want := Progress{CellsDone: 4, CellsTotal: 4, RunsDone: 12, RunsTotal: 12}
	if last != want {
		t.Fatalf("final progress %+v", last)
	}
}

func TestSeedSourcesMatchExperimentScheme(t *testing.T) {
	// The contract documented in the README: streams 1–5 of seed s are
	// the scenario, algorithm, workload, partition and failure streams,
	// each the next Split of a generator seeded with s.
	for _, seed := range []uint64{0, 1, 42} {
		root := xrand.New(seed)
		var want [5]uint64
		for i := range want {
			want[i] = root.Split().Uint64()
		}
		st := scenario.SeedStreams(seed)
		for i, src := range []*xrand.Source{&st.Scenario, &st.Algorithm, &st.Workload, &st.Partition, &st.Failure} {
			if got := src.Uint64(); got != want[i] {
				t.Fatalf("seed %d: stream %d = %d, want %d", seed, i+1, got, want[i])
			}
		}
	}
}

// TestRunMatchesSweepReplication: Scenario.Run and the sweep engine
// assemble a replication through the same seed streams and Attach, so
// a one-seed sweep of a scenario set through Configure, with an
// attrition event and a burst workload, reproduces Scenario.Run bit
// for bit.
func TestRunMatchesSweepReplication(t *testing.T) {
	base := scenario.New("replication").Targets(10).Fleet(3, 2).Horizon(20_000).MustBuild()
	base.Workloads = []scenario.Workload{{
		Name: "bursts", Kind: scenario.KindBursts,
		Bursts: &wsn.BurstConfig{Hot: 4, MeanGap: 1800},
	}}
	base.Events = &scenario.Events{
		Schedule: []scenario.Event{{Time: 6_000, Kind: scenario.EventAttrition}},
		Handoff:  "absorb",
	}
	for _, v := range []Variant{
		Algo("btctp", patrol.Planned(&core.BTCTP{})),
		Algo("random", patrol.Online(&baseline.Random{})),
	} {
		for _, seed := range []uint64{1, 7, 42} {
			spec := Spec{
				Name:       "replication",
				Algorithms: []Variant{v},
				Targets:    []int{base.Targets.Count},
				Mules:      []int{base.Fleet.Size()},
				Horizons:   []float64{base.Horizon},
				Configure:  func(_ Point, sc *scenario.Scenario) { *sc = *base },
				Metrics:    []Metric{AvgDCDT(), AvgSD(), Delivered()},
				Seeds:      1,
				BaseSeed:   seed,
			}
			swept, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			run, err := base.Run(v.Make(nil), seed)
			if err != nil {
				t.Fatal(err)
			}
			warm := run.PatrolStart + 1
			want := map[string]float64{
				"avg_dcdt_s": run.Recorder.AvgDCDTAfter(warm),
				"avg_sd_s":   run.Recorder.AvgSDAfter(warm),
				"delivered":  float64(run.Data[0].Delivered()),
			}
			if want["delivered"] == 0 {
				t.Fatalf("%s seed %d: the workload delivered nothing", v.Name, seed)
			}
			for name, w := range want {
				if got := swept.Cells[0].Metric(name).Mean; math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("%s seed %d: sweep %s = %v, Scenario.Run %v", v.Name, seed, name, got, w)
				}
			}
		}
	}
}

func TestVariantHooks(t *testing.T) {
	// Variant Options and Tag reach the run and the metric functions.
	spec := Spec{
		Name: "hooks",
		Algorithms: []Variant{
			{
				Name: "nosync", Tag: 7,
				Make:    func(*xrand.Source) patrol.Algorithm { return patrol.Planned(&core.BTCTP{}) },
				Options: func(o *patrol.Options) { o.NoSynchronizedStart = true },
			},
		},
		Targets:  []int{5},
		Mules:    []int{2},
		Horizons: []float64{3_000},
		Metrics: []Metric{
			{Name: "tag", Fn: func(e Env) float64 { return e.Variant.Tag }},
			{Name: "patrol_start", Fn: func(e Env) float64 { return e.Result.PatrolStart }},
		},
		Seeds: 2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Metric("tag").Mean; got != 7 {
		t.Fatalf("tag = %v", got)
	}
	// NoSynchronizedStart zeroes the patrol start.
	if got := res.Cells[0].Metric("patrol_start").Mean; got != 0 {
		t.Fatalf("patrol start = %v despite NoSynchronizedStart", got)
	}
}

func TestObserverOptionsHook(t *testing.T) {
	// The Options hook can attach per-replication observers; with one
	// worker they accumulate exactly what the built-in recorder sees.
	visits := 0
	spec := Spec{
		Name:       "observers",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{5},
		Mules:      []int{2},
		Horizons:   []float64{3_000},
		Workers:    1,
		Options: func(p Point, o *patrol.Options) {
			o.Observers = append(o.Observers, patrol.ObserverFuncs{
				Visit: func(_, _ int, _ float64) { visits++ },
			})
		},
		Metrics: []Metric{TotalVisits()},
		Seeds:   2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Cells[0].Metric("visits")
	if float64(visits) != want.Mean*float64(want.N) {
		t.Fatalf("observer saw %d visits, recorder total %v", visits, want.Mean*float64(want.N))
	}
}

func TestWorkloadAxis(t *testing.T) {
	// Workload on/off as a first-class axis: the off cell reports zero
	// delivery, the on cell delivers packets, and the interval metrics
	// are identical — the workload observes, it does not steer.
	spec := Spec{
		Name:       "workloads",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{6},
		Mules:      []int{2},
		Horizons:   []float64{20_000},
		Workloads: []scenario.Workload{
			{}, // none
			packetsWorkload(),
		},
		Metrics: []Metric{AvgDCDT(), Delivered(), OnTimePct()},
		Seeds:   2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	off, on := res.Cells[0], res.Cells[1]
	if off.Point.Workload != "" || on.Point.Workload != "packets" {
		t.Fatalf("workload coordinates %q %q", off.Point.Workload, on.Point.Workload)
	}
	if off.Metric("delivered").Mean != 0 {
		t.Fatalf("workload-off cell delivered %v", off.Metric("delivered").Mean)
	}
	if on.Metric("delivered").Mean <= 0 {
		t.Fatal("workload-on cell delivered nothing")
	}
	if off.Metric("avg_dcdt_s") != on.Metric("avg_dcdt_s") {
		t.Fatalf("attaching the workload changed the interval metrics: %+v vs %+v",
			off.Metric("avg_dcdt_s"), on.Metric("avg_dcdt_s"))
	}
}

func TestFleetAxis(t *testing.T) {
	// Named fleets as the fleet dimension: a homogeneous and a
	// mixed-speed fleet of the same size.
	mixed, err := scenario.ParseFleet("1x1+1x4")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:       "fleets",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{6},
		Fleets:     []scenario.Fleet{scenario.Homogeneous(2, 2), mixed},
		Horizons:   []float64{20_000},
		Metrics:    []Metric{AvgDCDT(), TotalVisits()},
		Seeds:      2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	homog, het := res.Cells[0], res.Cells[1]
	if homog.Point.Fleet != "2x2" || homog.Point.Speed != 2 || homog.Point.Mules != 2 {
		t.Fatalf("homogeneous point %+v", homog.Point)
	}
	if het.Point.Fleet != "1x1+1x4" || het.Point.Speed != 0 || het.Point.Mules != 2 {
		t.Fatalf("mixed point %+v", het.Point)
	}
	for _, c := range res.Cells {
		if c.Metric("visits").Mean <= 0 {
			t.Fatalf("cell %v collected nothing", c.Point)
		}
	}
	// Mixing the Fleets axis with Mules/Speeds is rejected.
	bad := spec
	bad.Mules = []int{2}
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("Fleets + Mules accepted")
	}
}

func TestFleetAxisBatteryKeepsCommonSpeed(t *testing.T) {
	// Per-mule batteries make a fleet heterogeneous for the options
	// path but do not mix speeds: the point still reports the shared
	// speed.
	f, err := scenario.ParseFleet("2x2@500000")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:       "battery-fleet",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{5},
		Fleets:     []scenario.Fleet{f},
		Horizons:   []float64{5_000},
		Metrics:    []Metric{TotalVisits()},
		Seeds:      1,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Point.Speed; got != 2 {
		t.Fatalf("uniform-speed battery fleet reported speed %g", got)
	}
}

func TestFleetAxisReachesBespokeScenarios(t *testing.T) {
	// The Spec.Scenario escape hatch replaces generation, not the
	// fleet: per-mule speeds still reach the simulation.
	mixed, err := scenario.ParseFleet("1x1+1x4")
	if err != nil {
		t.Fatal(err)
	}
	configured := false
	spec := Spec{
		Name:       "bespoke",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{6},
		Fleets:     []scenario.Fleet{mixed},
		Horizons:   []float64{10_000},
		Scenario: func(p Point, src *xrand.Source) *field.Scenario {
			return mustGenerate(field.Config{NumTargets: p.Targets, NumMules: p.Mules}, src)
		},
		Configure: func(Point, *scenario.Scenario) { configured = true },
		Metrics: []Metric{
			{Name: "speed_gap_m", Fn: func(e Env) float64 {
				return e.Result.Mules[1].Distance - e.Result.Mules[0].Distance
			}},
		},
		Seeds: 1,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Cells[0].Metric("speed_gap_m").Mean; gap <= 0 {
		t.Fatalf("4 m/s mule did not out-travel the 1 m/s mule (gap %g m)", gap)
	}
	if configured {
		t.Fatal("Configure invoked although Scenario replaces materialization")
	}
}

// BenchmarkMultiCellSweep measures a sweep whose parallelism comes
// from cells, not replications (Seeds=1): run with -cpu 1,2,4,8 to see
// the cells themselves scale with GOMAXPROCS. Workers defaults to
// GOMAXPROCS, so the -cpu flag is the worker count.
func BenchmarkMultiCellSweep(b *testing.B) {
	spec := Spec{
		Name:       "bench",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{10, 15, 20, 25, 30, 35, 40, 45},
		Mules:      []int{2, 4},
		Horizons:   []float64{30_000},
		Metrics:    []Metric{AvgDCDT(), AvgSD()},
		Seeds:      1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleRun() {
	spec := Spec{
		Name:       "example",
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{6},
		Mules:      []int{2},
		Horizons:   []float64{5_000},
		Metrics:    []Metric{AvgSD()},
		Seeds:      2,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cells=%d runs=%d btctp steady SD=%.1f\n",
		len(res.Cells), res.Runs, res.Cells[0].Metric("avg_sd_s").Mean)
	// Output: cells=1 runs=2 btctp steady SD=0.0
}

// mustGenerate is field.Generate for a config it can place.
func mustGenerate(cfg field.Config, src *xrand.Source) *field.Scenario {
	s, err := field.Generate(cfg, src)
	if err != nil {
		panic(err)
	}
	return s
}
