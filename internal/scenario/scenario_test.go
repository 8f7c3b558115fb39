package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/patrol"
	"tctp/internal/wsn"
	"tctp/internal/xrand"
)

func TestJSONRoundTrip(t *testing.T) {
	// A scenario exercising every field: clustered layout, VIPs, a
	// mixed-speed fleet with one battery, recharge, two workloads.
	orig := New("everything").
		Field(600, 400).
		Clusters(3, 50).
		Targets(15).
		VIPs(2, 3).
		Mule(1.5, 0).
		Mule(3, 120_000).
		MulesAtSink().
		Horizon(42_000).
		Recharge().
		Workload("packets", wsn.Config{GenInterval: 30, BufferCap: 10, Deadline: 900}).
		Workload("slow", wsn.Config{GenInterval: 600}).
		MustBuild()

	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Scenario
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, orig) {
		t.Fatalf("round trip changed the scenario:\norig: %+v\ngot:  %+v", orig, &got)
	}
	// The decoded scenario is immediately valid and materializable.
	if _, err := got.Materialize(xrand.New(1)); err != nil {
		t.Fatal(err)
	}
}

func TestJSONPlacementByName(t *testing.T) {
	b, err := json.Marshal(Hotspot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"placement":"hotspot"`) {
		t.Fatalf("placement not encoded by name: %s", b)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no targets", func(s *Scenario) { s.Targets.Count = 0 }, "targets"},
		{"negative field", func(s *Scenario) { s.Field.Width = -1 }, "negative"},
		{"bad placement", func(s *Scenario) { s.Field.Placement = field.Placement(99) }, "placement"},
		{"empty fleet", func(s *Scenario) { s.Fleet.Mules = nil }, "fleet"},
		{"zero speed", func(s *Scenario) { s.Fleet.Mules[0].Speed = 0 }, "speed"},
		{"negative battery", func(s *Scenario) { s.Fleet.Mules[0].Battery = -1 }, "battery"},
		{"vip weight", func(s *Scenario) { s.Targets.VIPs, s.Targets.VIPWeight = 2, 1 }, "weight"},
		{"too many vips", func(s *Scenario) { s.Targets.VIPs, s.Targets.VIPWeight = 99, 2 }, "exceed"},
		{"negative horizon", func(s *Scenario) { s.Horizon = -5 }, "horizon"},
		{"unnamed workload", func(s *Scenario) { s.Workloads = []Workload{{}} }, "name"},
		{"duplicate workload", func(s *Scenario) {
			s.Workloads = []Workload{{Name: "packets"}, {Name: "packets"}}
		}, "duplicate"},
		{"negative workload", func(s *Scenario) {
			s.Workloads = []Workload{{Name: "w", Data: wsn.Config{Deadline: -1}}}
		}, "negative"},
	}
	for _, tc := range cases {
		s := Paper51()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Materialize and Run surface the same validation error.
		if _, err := s.Materialize(xrand.New(1)); err == nil {
			t.Fatalf("%s: Materialize accepted", tc.name)
		}
	}
}

// unplaceable are scenario documents whose clusters cannot be placed:
// a negative radius, four default clusters (radius 80 m, centres 180 m
// apart) on a 100 × 100 field, a negative cluster count, and a radius
// that overflows the discs' bounds.
var unplaceable = []string{
	`{"field":{"placement":"clusters","cluster_radius":-5},"targets":{"count":5},"fleet":{"mules":[{"speed":2}]}}`,
	`{"field":{"width":100,"height":100,"placement":"clusters"},"targets":{"count":5},"fleet":{"mules":[{"speed":2}]}}`,
	`{"field":{"placement":"clusters","num_clusters":-2},"targets":{"count":5},"fleet":{"mules":[{"speed":2}]}}`,
	`{"field":{"placement":"clusters","cluster_radius":1e308},"targets":{"count":5},"fleet":{"mules":[{"speed":2}]}}`,
}

// TestUnplaceableClustersFail: a clusters field that cannot be placed
// is an error from Materialize, neither a spin nor a panic.
func TestUnplaceableClustersFail(t *testing.T) {
	for _, doc := range unplaceable {
		var s Scenario
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Materialize(xrand.New(1))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "clusters") {
				t.Fatalf("%s: Materialize returned %v", doc, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Materialize still running after 10 s", doc)
		}
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 5 {
		t.Fatalf("presets = %v", names)
	}
	for _, name := range names {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("preset %q named %q", name, s.Name)
		}
		if _, err := s.Materialize(xrand.New(7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Preset("atlantis"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// The scenario layer must be bit-compatible with the historic
// field.Generate path for homogeneous paper-protocol scenarios:
// materializing Paper51 from a source equals generating directly.
func TestMaterializeMatchesFieldGenerate(t *testing.T) {
	got, err := Paper51().Materialize(xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	want, err := field.Generate(field.Config{
		Width: 800, Height: 800,
		NumTargets: 20, NumMules: 4, Placement: field.Uniform,
	}, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("materialization diverged from field.Generate")
	}
}

func TestParseFleet(t *testing.T) {
	f, err := ParseFleet("2x1+2x3@150000")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 || f.Name != "2x1+2x3@150000" {
		t.Fatalf("fleet %+v", f)
	}
	if f.Mules[0].Speed != 1 || f.Mules[0].Battery != 0 {
		t.Fatalf("mule 0 = %+v", f.Mules[0])
	}
	if f.Mules[3].Speed != 3 || f.Mules[3].Battery != 150_000 {
		t.Fatalf("mule 3 = %+v", f.Mules[3])
	}
	if f.Homogeneous() {
		t.Fatal("mixed fleet reported homogeneous")
	}
	for _, bad := range []string{"", "x2", "2x", "0x2", "2x0", "2x2@-1", "ax2", "2xb", "2x2@x"} {
		if _, err := ParseFleet(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	if h := Homogeneous(4, 2); !h.Homogeneous() || h.Name != "4x2" {
		t.Fatalf("Homogeneous = %+v", h)
	}
}

func TestPatrolOptionsHomogeneity(t *testing.T) {
	// Homogeneous fleets stay on the scalar Speed path (bit-compatible
	// with pre-scenario options); heterogeneous fleets carry per-mule
	// overrides.
	if o := Paper51().PatrolOptions(); o.Speed != 2 || o.Fleet != nil {
		t.Fatalf("homogeneous options %+v", o)
	}
	s := New("mixed").Mule(1, 0).Mule(3, 9_000).MustBuild()
	o := s.PatrolOptions()
	if len(o.Fleet) != 2 || o.Fleet[1].Speed != 3 || o.Fleet[1].Battery != 9_000 {
		t.Fatalf("heterogeneous options %+v", o)
	}
}

func TestRunWithWorkloads(t *testing.T) {
	s := New("wl").Targets(8).Fleet(2, 2).Horizon(30_000).
		Workload("packets", wsn.Config{GenInterval: 60, BufferCap: 50, Deadline: 3600}).
		MustBuild()
	res, err := s.Run(patrol.Planned(&core.BTCTP{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 1 {
		t.Fatalf("%d workload overlays", len(res.Data))
	}
	if res.Data[0].Delivered() == 0 {
		t.Fatal("workload delivered nothing")
	}
	if res.TotalVisits() == 0 {
		t.Fatal("no visits recorded")
	}
}

// The determinism contract of the observer refactor: observers watch,
// they do not steer. A preset scenario run with observers attached in
// different orders yields identical metrics.
func TestObserverOrderDoesNotChangeMetrics(t *testing.T) {
	sc := New("det").Targets(10).Fleet(3, 2).Horizon(25_000).MustBuild()
	alg := patrol.Planned(&core.BTCTP{})

	type probe struct{ visits, deaths, recharges int }
	mk := func(p *probe) patrol.Observer {
		return patrol.ObserverFuncs{
			Visit:    func(_, _ int, _ float64) { p.visits++ },
			Death:    func(_ int, _ float64, _ geom.Point) { p.deaths++ },
			Recharge: func(_ int, _ float64) { p.recharges++ },
		}
	}

	run := func(order func(a, b patrol.Observer) []patrol.Observer) (*Result, *probe, *probe) {
		pa, pb := &probe{}, &probe{}
		res, err := sc.Run(alg, 3, order(mk(pa), mk(pb))...)
		if err != nil {
			t.Fatal(err)
		}
		return res, pa, pb
	}
	resAB, aAB, bAB := run(func(a, b patrol.Observer) []patrol.Observer { return []patrol.Observer{a, b} })
	resBA, aBA, bBA := run(func(a, b patrol.Observer) []patrol.Observer { return []patrol.Observer{b, a} })

	if *aAB != *bAB || *aAB != *aBA || *aAB != *bBA {
		t.Fatalf("observers disagree: %+v %+v %+v %+v", aAB, bAB, aBA, bBA)
	}
	if aAB.visits != resAB.TotalVisits() {
		t.Fatalf("probe saw %d visits, recorder %d", aAB.visits, resAB.TotalVisits())
	}
	for tg := 0; tg < resAB.Scenario.NumTargets(); tg++ {
		x, y := resAB.Recorder.VisitTimes(tg), resBA.Recorder.VisitTimes(tg)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("target %d visit log depends on observer order", tg)
		}
	}
	if resAB.Recorder.AvgSDAfter(0) != resBA.Recorder.AvgSDAfter(0) ||
		resAB.Recorder.AvgDCDTAfter(0) != resBA.Recorder.AvgDCDTAfter(0) {
		t.Fatal("metrics depend on observer order")
	}
}

func TestBurstWorkloadKind(t *testing.T) {
	sc, err := New("bursty").Targets(8).Fleet(2, 2).Horizon(30_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	sc.Workloads = append(sc.Workloads, Workload{Name: "bursts", Kind: KindBursts, Bursts: &wsn.BurstConfig{
		Hot: 2, MeanGap: 1800, Size: 10, BufferCap: 50, Deadline: 3600,
	}})
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	// JSON round-trip keeps the kind and the burst parameters.
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != 1 || back.Workloads[0].Kind != KindBursts ||
		back.Workloads[0].Bursts == nil || back.Workloads[0].Bursts.Size != 10 {
		t.Fatalf("burst workload did not round-trip: %+v", back.Workloads)
	}

	// The run attaches the burst overlay and collects data.
	res, err := sc.Run(patrol.Planned(&core.BTCTP{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 1 {
		t.Fatalf("%d overlays", len(res.Data))
	}
	if res.Data[0].Delivered() == 0 {
		t.Fatal("burst workload delivered nothing over 30000 s")
	}

	// Same seed → identical delivery; the arrivals are seeded by the
	// replication's workload stream.
	again, err := sc.Run(patrol.Planned(&core.BTCTP{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data[0].Delivered() != again.Data[0].Delivered() {
		t.Fatal("burst workload not deterministic per seed")
	}
}

func TestWorkloadKindValidation(t *testing.T) {
	sc := New("w").Targets(5).MustBuild()
	sc.Workloads = []Workload{{Name: "x", Kind: "avalanche"}}
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown workload kind accepted")
	}
	sc.Workloads = []Workload{{Name: "x", Kind: KindBursts,
		Bursts: &wsn.BurstConfig{Hot: 99}}}
	if err := sc.Validate(); err == nil {
		t.Fatal("more hot targets than targets accepted")
	}
	sc.Workloads = []Workload{{Name: "x", Kind: KindBursts,
		Bursts: &wsn.BurstConfig{MeanGap: -1}}}
	if err := sc.Validate(); err == nil {
		t.Fatal("negative burst gap accepted")
	}
}
