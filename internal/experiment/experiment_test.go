package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tctp/internal/stats"
	"tctp/internal/sweep"
)

// quick2 is a 2-replication protocol that keeps experiment tests fast
// while still exercising aggregation across runs.
func quick2() Params { return Params{Seeds: 2} }

func TestFig7ShapesHold(t *testing.T) {
	cfg := Fig7Config{Targets: 12, Mules: 3, MaxVisits: 10, Horizon: 150_000}
	r, err := Fig7(quick2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("%d series", len(r.Series))
	}
	byName := map[string]stats.Series{}
	for _, s := range r.Series {
		byName[s.Name] = s
		if s.Len() < 5 {
			t.Fatalf("series %s too short: %d", s.Name, s.Len())
		}
	}
	// TCTP must be the flattest curve: compare the SD of the curve's
	// tail (skipping the initialization transient in interval 1).
	tailSD := func(s stats.Series) float64 {
		return stats.SampleSD(s.Y[1:])
	}
	tctp := tailSD(byName["TCTP"])
	for _, other := range []string{"Random", "CHB", "Sweep"} {
		if tctp > tailSD(byName[other])+1e-9 {
			t.Fatalf("TCTP curve (sd %.3f) not flatter than %s (sd %.3f)",
				tctp, other, tailSD(byName[other]))
		}
	}
	// Random's curve must be genuinely erratic, not just non-flat.
	if tailSD(byName["Random"]) < 1.0 {
		t.Fatalf("Random curve suspiciously steady (sd %.3f)", tailSD(byName["Random"]))
	}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig8ShapesHold(t *testing.T) {
	cfg := Fig8Config{Targets: []int{10, 20}, Mules: []int{2, 4}, Horizon: 40_000}
	r, err := Fig8(quick2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// TCTP ~0 everywhere; CHB clearly positive on every cell.
	for i := range r.TCTP.Rows {
		for j := range r.TCTP.Cols {
			if r.TCTP.At(i, j) > 1e-6 {
				t.Fatalf("TCTP SD cell (%d,%d) = %v", i, j, r.TCTP.At(i, j))
			}
			if r.CHB.At(i, j) <= 1.0 {
				t.Fatalf("CHB SD cell (%d,%d) = %v, expected clearly positive", i, j, r.CHB.At(i, j))
			}
		}
	}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}

func TestWTCTPPoliciesShapesHold(t *testing.T) {
	cfg := WTCTPConfig{
		Targets: 12, Mules: 1,
		VIPs: []int{1, 3}, Weights: []int{2, 4},
		Horizon: 80_000,
	}
	r, err := WTCTPPolicies(quick2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9 shape: DCDT grows along both axes for both policies
	// (compare the extreme corners).
	for _, surf := range []*stats.Surface{r.DCDTShortest, r.DCDTBalancing} {
		if surf.At(1, 1) <= surf.At(0, 0) {
			t.Fatalf("%s: DCDT at max load %.2f not above min load %.2f",
				surf.Name, surf.At(1, 1), surf.At(0, 0))
		}
	}
	// Fig. 10 shape: balancing keeps SD below shortest at the heavy
	// corner (many VIPs, high weight).
	if r.SDBalancing.At(1, 1) >= r.SDShortest.At(1, 1) {
		t.Fatalf("balancing SD %.2f not below shortest SD %.2f at heavy corner",
			r.SDBalancing.At(1, 1), r.SDShortest.At(1, 1))
	}
	if r.Fig9String() == "" || r.Fig10String() == "" {
		t.Fatal("empty render")
	}
}

func TestEnergyShapesHold(t *testing.T) {
	cfg := EnergyConfig{Targets: 12, Mules: 2, Capacity: 100_000, Horizon: 200_000}
	r, err := Energy(quick2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Table.Rows
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Row 0: W-TCTP without recharge (dead mules > 0); row 1: RW-TCTP
	// (no deaths, recharges > 0, more visits).
	parse := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return f
	}
	deadNo, deadRW := parse(rows[0][3]), parse(rows[1][3])
	if deadNo <= 0 {
		t.Fatalf("no-recharge fleet survived (dead=%v)", deadNo)
	}
	if deadRW != 0 {
		t.Fatalf("RW-TCTP lost %v mules", deadRW)
	}
	if parse(rows[1][4]) <= 0 {
		t.Fatal("RW-TCTP never recharged")
	}
	if parse(rows[1][1]) <= parse(rows[0][1]) {
		t.Fatal("RW-TCTP did not collect more visits than the dying fleet")
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := AblationConfig{Targets: 10, Mules: 2, Horizon: 30_000}
	for name, fn := range map[string]func(Params, AblationConfig) (*Table, error){
		"A1": TourHeuristics,
		"A2": BreakPolicies,
		"A3": LocationInit,
		"A4": DwellSensitivity,
		"A5": Traversal,
	} {
		tb, err := fn(quick2(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		if tb.String() == "" {
			t.Fatalf("%s: empty render", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names() incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() not sorted")
		}
	}
	var buf bytes.Buffer
	if err := Run("definitely-not-registered", quick2(), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRegistryRunSmallest(t *testing.T) {
	// Run one registered experiment end to end through the registry
	// with a tiny protocol (a3-init is the cheapest).
	var buf bytes.Buffer
	if err := Run("a3-init", Params{Seeds: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "B-TCTP") {
		t.Fatalf("unexpected output: %q", buf.String())
	}
}

func TestDeliveryShapesHold(t *testing.T) {
	cfg := DeliveryConfig{
		Targets: 10, Mules: 3,
		GenInterval: 60, BufferCap: 30, Deadline: 2000,
		Horizon: 100_000,
	}
	r, err := Delivery(quick2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Table.Rows
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	parse := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return f
	}
	byName := map[string][]string{}
	for _, row := range rows {
		byName[row[0]] = row
	}
	// TCTP's mean delivery latency must beat Random's, and its
	// on-time percentage must be at least as high.
	if parse(byName["TCTP"][4]) >= parse(byName["Random"][4]) {
		t.Fatalf("TCTP mean latency %s not below Random %s",
			byName["TCTP"][4], byName["Random"][4])
	}
	if parse(byName["TCTP"][2]) < parse(byName["Random"][2]) {
		t.Fatalf("TCTP on-time %s below Random %s",
			byName["TCTP"][2], byName["Random"][2])
	}
	// Everyone delivers something on this workload.
	for name, row := range byName {
		if parse(row[1]) <= 0 {
			t.Fatalf("%s delivered nothing", name)
		}
	}
}

// A Params.Checkpoint directory makes every experiment sweep
// checkpointed and resumable: the second run of the same experiment
// restores instead of recomputing, and renders identically.
func TestParamsCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	p := Params{Seeds: 3}
	p.Checkpoint = dir

	render := func() string {
		var buf bytes.Buffer
		if err := RunFormat("a1-tour", p, &buf, FormatCSV); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	if _, err := os.Stat(filepath.Join(dir, "a1-tour.ckpt")); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	if second := render(); second != first {
		t.Fatalf("checkpointed rerun diverged:\n%s\nvs\n%s", first, second)
	}
	// A nameless spec cannot derive a checkpoint file name.
	if _, err := p.run(sweep.Spec{}); err == nil {
		t.Fatal("nameless checkpointed spec accepted")
	}
}
