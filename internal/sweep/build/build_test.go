package build

import (
	"context"
	"strconv"
	"testing"

	"tctp/internal/field"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/sweep/protocol"
)

func metricNames(t *testing.T, req protocol.SweepRequest) map[string]bool {
	t.Helper()
	spec, err := Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range spec.Metrics {
		names[m.Name] = true
	}
	return names
}

// The priority workload rides the axis like any other value and pulls
// in the per-class delivery columns alongside the aggregate ones.
func TestSpecPriorityWorkloadMetrics(t *testing.T) {
	names := metricNames(t, protocol.SweepRequest{Workloads: "priority"})
	for _, want := range []string{"delivered", "delivered_hi", "mean_latency_hi_s", "mean_latency_lo_s"} {
		if !names[want] {
			t.Errorf("priority spec lacks metric %q (have %v)", want, names)
		}
	}
	names = metricNames(t, protocol.SweepRequest{Workloads: "on"})
	if names["delivered_hi"] {
		t.Error("plain packet workload reports the priority split")
	}

	spec, err := Spec(protocol.SweepRequest{Workloads: "priority"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 1 || spec.Workloads[0].Kind != scenario.KindPriority {
		t.Fatalf("workloads = %+v, want one priority workload", spec.Workloads)
	}
}

// Quality on the request appends the ratio columns; off leaves the
// spec (and therefore every cell key) unchanged.
func TestSpecQualityMetrics(t *testing.T) {
	names := metricNames(t, protocol.SweepRequest{Quality: true})
	for _, want := range []string{"ratio_tour", "ratio_dcdt"} {
		if !names[want] {
			t.Errorf("quality spec lacks metric %q (have %v)", want, names)
		}
	}
	names = metricNames(t, protocol.SweepRequest{})
	if names["ratio_tour"] || names["ratio_dcdt"] {
		t.Error("default spec reports quality ratios")
	}
}

func TestWorkloadsRejectsUnknownKind(t *testing.T) {
	if _, err := Spec(protocol.SweepRequest{Workloads: "vip"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// A scenario document's VIP population must reach the spec's VIP
// axis — without it, priority workloads over VIP scenarios would
// silently simulate an all-normal field.
func TestSpecScenarioVIPs(t *testing.T) {
	doc := []byte(`{
		"name": "vip-spec",
		"field": {"placement": "uniform"},
		"targets": {"count": 10, "vips": 3, "vip_weight": 4},
		"fleet": {"mules": [{"speed": 2}, {"speed": 2}]},
		"horizon": 20000
	}`)
	spec, err := Spec(protocol.SweepRequest{Scenario: doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.VIPs) != 1 || spec.VIPs[0] != 3 {
		t.Fatalf("VIPs axis = %v, want [3]", spec.VIPs)
	}
	if len(spec.VIPWeights) != 1 || spec.VIPWeights[0] != 4 {
		t.Fatalf("VIPWeights axis = %v, want [4]", spec.VIPWeights)
	}
	// VIP-free scenarios keep the default axis (and their cell keys).
	spec, err = Spec(protocol.SweepRequest{Preset: "paper51"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.VIPs) != 0 {
		t.Fatalf("VIP-free preset set the axis: %v", spec.VIPs)
	}
}

func TestParseInts(t *testing.T) {
	got, err := list("10, 20,30", ",", "integer", strconv.Atoi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("ints = %v", got)
	}
	if _, err := list("10,x", ",", "integer", strconv.Atoi); err == nil || err.Error() != `bad integer "x"` {
		t.Fatalf("bad integer: %v", err)
	}
}

func TestParseFloats(t *testing.T) {
	got, err := list("1.5, 2", ",", "number", parseFloat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2 {
		t.Fatalf("floats = %v", got)
	}
	if _, err := list("1;2", ",", "number", parseFloat); err == nil || err.Error() != `bad number "1;2"` {
		t.Fatalf("bad number: %v", err)
	}
}

func TestParsePlacements(t *testing.T) {
	got, err := list("uniform, clusters", ",", "", field.ParsePlacement)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("placements = %v", got)
	}
	if _, err := list("hexgrid", ",", "", field.ParsePlacement); err == nil {
		t.Fatal("bad placement accepted")
	}
}

func TestAlgorithmSelector(t *testing.T) {
	for _, name := range []string{"btctp", "wtctp", "chb", "sweep", "random"} {
		alg, err := Algorithm(name)
		if err != nil || alg == nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alg.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := Algorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseFleetsAndWorkloads(t *testing.T) {
	fs, err := list("2x2; 1x1+1x3", ";", "", scenario.ParseFleet)
	if err != nil || len(fs) != 2 || fs[1].Size() != 2 {
		t.Fatalf("fleets = %v, %v", fs, err)
	}
	if _, err := list("2x2;;", ";", "", scenario.ParseFleet); err == nil {
		t.Fatal("empty fleet spec accepted")
	}
	ws, err := workloads(protocol.SweepRequest{Workloads: "off,on", WorkloadGen: 30, WorkloadBuffer: 5, WorkloadDeadline: 900})
	if err != nil || len(ws) != 2 {
		t.Fatalf("workloads = %v, %v", ws, err)
	}
	if ws[0].Enabled() || !ws[1].Enabled() {
		t.Fatalf("workload enable flags wrong: %v", ws)
	}
	if ws[1].Data.GenInterval != 30 || ws[1].Data.BufferCap != 5 || ws[1].Data.Deadline != 900 {
		t.Fatalf("workload knobs ignored: %+v", ws[1].Data)
	}
}

// TestParseAdaptive covers the -adaptive spec metric:relci[:min[:max]]
// that the CLI flag and a sweep request's adaptive field share.
func TestParseAdaptive(t *testing.T) {
	a, err := adaptive("avg_dcdt_s:0.05")
	if err != nil || a.Metric != "avg_dcdt_s" || a.RelCI != 0.05 || a.MinReps != 0 || a.MaxReps != 0 {
		t.Fatalf("Adaptive = %+v, %v", a, err)
	}
	a, err = adaptive("avg_sd_s:0.1:4:40")
	if err != nil || a.MinReps != 4 || a.MaxReps != 40 {
		t.Fatalf("Adaptive = %+v, %v", a, err)
	}
	for _, bad := range []string{"", "m", "m:x", ":0.1", "m:0.1:x", "m:0.1:2:x", "m:0.1:2:3:4"} {
		if _, err := adaptive(bad); err == nil {
			t.Fatalf("adaptive(%q) accepted", bad)
		}
	}
}

// TestPaperRandomCellRunsAhead: on the paper51 preset at its default
// horizon, Random's routers declare themselves independent and every
// mule runs ahead of the event heap, so each replication of a Random
// cell executes no engine event; attaching an observer would put them
// back on it.
func TestPaperRandomCellRunsAhead(t *testing.T) {
	spec, err := Spec(protocol.SweepRequest{Algorithms: "random", Preset: "paper51", Targets: "10,50", Mules: "2,8", Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics = append(spec.Metrics, sweep.Metric{Name: "engine_events", Fn: func(env sweep.Env) float64 {
		return float64(env.Result.Events)
	}}, sweep.Metric{Name: "visits", Fn: func(env sweep.Env) float64 {
		return float64(env.Result.TotalVisits())
	}})
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if ev := c.Metric("engine_events"); ev.N != 2 || ev.Max != 0 {
			t.Errorf("cell %v executed up to %v engine events over %d replications, want 0", c.Point, ev.Max, ev.N)
		}
		if v := c.Metric("visits"); v.Min == 0 {
			t.Errorf("cell %v: a replication made no visit", c.Point)
		}
	}
}
