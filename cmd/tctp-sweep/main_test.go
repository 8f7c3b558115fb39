package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tctp/internal/scenario"
	"tctp/internal/sweep/protocol"
)

var update = flag.Bool("update", false, "rewrite the golden fixture")

// req is the sweep request a config embeds.
type req = protocol.SweepRequest

// csvConfig is the config of r writing CSV.
func csvConfig(r req) config { return config{SweepRequest: r, Format: "csv"} }

// goldenConfig is the fixed workload pinned by testdata/golden.csv.
func goldenConfig() config {
	return csvConfig(req{
		Algorithms: "btctp,chb", Targets: "6,8", Mules: "2,3",
		Speeds: "2", Placements: "uniform",
		Seeds: 3, Horizon: 5_000,
	})
}

// TestGoldenCSV pins the engine-backed CSV output byte-for-byte: any
// change to seed derivation, aggregation order, or formatting shows up
// as a fixture diff. Regenerate deliberately with -update.
func TestGoldenCSV(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := goldenConfig()
	cfg.Workers = 4
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/golden.csv"
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output diverged from %s:\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

// TestDeterministicAcrossWorkers asserts the CLI contract directly:
// identical bytes with 1 worker and 8.
func TestDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, workers := range []int{1, 8} {
		var out, errw bytes.Buffer
		cfg := goldenConfig()
		cfg.Workers = workers
		if err := run(cfg, &out, &errw); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output depends on worker count:\nworkers=1:\n%s\nworkers=8:\n%s",
			outputs[0], outputs[1])
	}
}

func TestSkippedCellsReported(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := goldenConfig()
	cfg.Targets, cfg.Mules = "2,8", "2,8"
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	msg := errw.String()
	// targets=2 cannot host 8 mules: two cells (per algorithm) skip.
	if !strings.Contains(msg, "skipped cell") ||
		!strings.Contains(msg, "targets=2 mules=8") ||
		!strings.Contains(msg, "at least one target per mule") {
		t.Fatalf("skip report missing:\n%s", msg)
	}
	if !strings.Contains(msg, "6 cells run, 2 skipped") {
		t.Fatalf("run summary missing:\n%s", msg)
	}
	// Skipped cells leave no CSV rows behind.
	if strings.Contains(out.String(), "2,8,") {
		t.Fatalf("skipped cell leaked into output:\n%s", out.String())
	}
}

func TestFormats(t *testing.T) {
	for _, format := range []string{"json", "table"} {
		var out, errw bytes.Buffer
		cfg := goldenConfig()
		cfg.Targets, cfg.Mules, cfg.Algorithms = "6", "2", "btctp"
		cfg.Format = format
		if err := run(cfg, &out, &errw); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
	cfg := goldenConfig()
	cfg.Format = "xml"
	if err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestBadFlags(t *testing.T) {
	for _, r := range []req{
		{Algorithms: "bogus", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6;7", Mules: "2", Speeds: "2", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "x", Speeds: "2", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "fast", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "ring", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "0", Mules: "1", Speeds: "2", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "-1", Placements: "uniform", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform", Seeds: 0, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform", Seeds: 1, Horizon: -1},
		{Algorithms: "btctp", Targets: "6", Fleets: "2x", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Fleets: "2x2", Speeds: "1,2", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Fleets: "2x2", Mules: "2,4", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform", Workloads: "sometimes", Seeds: 1, Horizon: 5_000},
		{Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform", Preset: "atlantis", Seeds: 1, Horizon: 5_000},
	} {
		cfg := csvConfig(r)
		if err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestScenarioAxesSweep is the acceptance sweep of the scenario
// refactor: {placement: uniform, clusters} × {fleet: homogeneous,
// mixed-speed} × {workload: off, on} through the real CLI path.
func TestScenarioAxesSweep(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := csvConfig(req{
		Algorithms:  "btctp",
		Targets:     "8",
		Fleets:      "2x2;1x1+1x3",
		Placements:  "uniform,clusters",
		Workloads:   "off,on",
		WorkloadGen: 60, WorkloadBuffer: 50, WorkloadDeadline: 3600,
		Seeds: 2, Horizon: 8_000,
	})
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+8 { // header + 2 fleets × 2 placements × 2 workloads
		t.Fatalf("%d lines:\n%s", len(lines), out.String())
	}
	header := lines[0]
	for _, col := range []string{"fleet", "workload", "delivered", "on_time_pct"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header misses %q: %s", col, header)
		}
	}
	// Mixed-speed cells carry the fleet name and a 0 speed; workload-on
	// cells deliver packets.
	if !strings.Contains(out.String(), "1x1+1x3") {
		t.Fatalf("mixed fleet missing from output:\n%s", out.String())
	}
	for i, line := range lines[1:] {
		rec := strings.Split(line, ",")
		workload := rec[10]
		delivered := rec[22] // point columns + reps + 4 metric pairs
		if workload == "packets" && delivered == "0.000" {
			t.Fatalf("row %d: workload-on cell delivered nothing: %s", i, line)
		}
		if workload == "" && delivered != "0.000" {
			t.Fatalf("row %d: workload-off cell delivered %s", i, delivered)
		}
	}
}

// TestPresetDefaults: -preset fills the axis defaults (placement,
// targets, mules, horizon) from the named scenario preset.
func TestPresetDefaults(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := csvConfig(req{
		Algorithms: "btctp", Preset: "clustered",
		Targets: "6", // explicit flags still win
		Seeds:   1,
	})
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines:\n%s", len(lines), out.String())
	}
	rec := strings.Split(lines[1], ",")
	if rec[1] != "6" { // explicit -targets
		t.Fatalf("targets = %s", rec[1])
	}
	if rec[2] != "4" { // preset fleet size
		t.Fatalf("mules = %s", rec[2])
	}
	if rec[5] != "clusters" { // preset placement
		t.Fatalf("placement = %s", rec[5])
	}
	if rec[6] != "100000" { // preset horizon
		t.Fatalf("horizon = %s", rec[6])
	}
}

func TestProgressOutput(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := goldenConfig()
	cfg.Targets, cfg.Mules, cfg.Algorithms = "6", "2", "btctp"
	cfg.Progress = true
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "runs 3/3") {
		t.Fatalf("progress missing:\n%q", errw.String())
	}
}

// TestScenarioFileDefaults: -scenario loads a serialized scenario from
// disk and fills the axis defaults exactly like -preset.
func TestScenarioFileDefaults(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := csvConfig(req{Algorithms: "btctp", Seeds: 1})
	cfg.ScenarioFile = "testdata/scenario.json"
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines:\n%s", len(lines), out.String())
	}
	rec := strings.Split(lines[1], ",")
	if rec[1] != "9" { // fixture target count
		t.Fatalf("targets = %s", rec[1])
	}
	if rec[2] != "3" { // fixture fleet size
		t.Fatalf("mules = %s", rec[2])
	}
	if rec[5] != "clusters" { // fixture placement
		t.Fatalf("placement = %s", rec[5])
	}
	if rec[6] != "20000" { // fixture horizon
		t.Fatalf("horizon = %s", rec[6])
	}
}

// TestScenarioFileRoundTrip: serializing a preset to JSON and loading
// it back through -scenario sweeps identically to -preset — the CLI
// proof that the scenario model round-trips.
func TestScenarioFileRoundTrip(t *testing.T) {
	ps, err := scenario.Preset("clustered")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clustered.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	outputs := make([]string, 0, 2)
	fromFile := csvConfig(req{Algorithms: "btctp", Seeds: 2})
	fromFile.ScenarioFile = path
	for _, cfg := range []config{
		csvConfig(req{Algorithms: "btctp", Preset: "clustered", Seeds: 2}),
		fromFile,
	} {
		var out, errw bytes.Buffer
		if err := run(cfg, &out, &errw); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("-scenario of a serialized preset diverged from -preset:\n%s\nvs\n%s",
			outputs[0], outputs[1])
	}
}

func TestScenarioFileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"targets":{"count":0},"fleet":{"mules":[{"speed":2}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string]string{
		"missing":         filepath.Join(dir, "absent.json"),
		"garbage":         bad,
		"invalid":         invalid,
		"preset-conflict": "testdata/scenario.json",
	} {
		cfg := csvConfig(req{Algorithms: "btctp", Seeds: 1})
		if cfg.ScenarioFile = file; name == "preset-conflict" {
			cfg.Preset = "clustered"
		}
		if err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestAdaptiveSweepCLI: the acceptance path end to end — a low-variance
// cell stops before the cap, the CSV reps column carries the actual
// count, and the stop is reported on stderr.
func TestAdaptiveSweepCLI(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := csvConfig(req{
		Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform",
		Seeds: 30, Horizon: 5_000,
		Adaptive: "avg_dcdt_s:0.3:3",
	})
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rec := strings.Split(lines[1], ",")
	reps, err := strconv.Atoi(rec[13]) // the reps column follows the 13 point columns
	if err != nil {
		t.Fatalf("reps column %q: %v", rec[13], err)
	}
	if reps < 3 || reps >= 30 {
		t.Fatalf("adaptive cell ran %d reps, want early stop in [3,30)", reps)
	}
	if !strings.Contains(errw.String(), "stopped cell") ||
		!strings.Contains(errw.String(), "avg_dcdt_s") {
		t.Fatalf("stop report missing:\n%s", errw.String())
	}
	if err := run(csvConfig(req{
		Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform",
		Seeds: 5, Horizon: 5_000, Adaptive: "nope:0.3",
	}), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown adaptive metric accepted")
	}
}

// TestCheckpointResumeCLI: -checkpoint writes a resumable state file
// and -resume replays it to output identical to a plain run.
func TestCheckpointResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	base := csvConfig(req{
		Algorithms: "btctp", Targets: "6", Mules: "2", Speeds: "2", Placements: "uniform",
		Seeds: 3, Horizon: 5_000,
	})
	var plain, errw bytes.Buffer
	if err := run(base, &plain, &errw); err != nil {
		t.Fatal(err)
	}

	ck := base
	ck.Checkpoint = path
	var first bytes.Buffer
	if err := run(ck, &first, &errw); err != nil {
		t.Fatal(err)
	}
	if first.String() != plain.String() {
		t.Fatalf("checkpointed run diverged from plain run")
	}

	ck.Resume = true
	var resumed bytes.Buffer
	if err := run(ck, &resumed, &errw); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != plain.String() {
		t.Fatalf("-resume output diverged:\n%s\nvs\n%s", resumed.String(), plain.String())
	}

	// -resume without -checkpoint is rejected.
	bad := base
	bad.Resume = true
	if err := run(bad, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := parseShard("2/3")
	if err != nil || i != 1 || n != 3 {
		t.Fatalf("parseShard(2/3) = %d, %d, %v", i, n, err)
	}
	i, n, err = parseShard(" 1 / 1 ")
	if err != nil || i != 0 || n != 1 {
		t.Fatalf("parseShard(1/1) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "2", "a/3", "2/b", "0/3", "4/3", "-1/3", "1/0"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Fatalf("parseShard(%q) accepted", bad)
		}
	}
}

// TestShardMergeCLI is the distributed workflow end to end: the same
// flags run whole, and as three shards whose checkpoints merge back to
// byte-identical CSV — with skipped cells reproduced on stderr.
func TestShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	base := goldenConfig()
	base.Mules = "2,8" // targets=6 cannot host 8 mules: skipped cells
	var whole, wholeErr bytes.Buffer
	if err := run(base, &whole, &wholeErr); err != nil {
		t.Fatal(err)
	}

	shards := make([]string, 3)
	for i := range shards {
		shards[i] = filepath.Join(dir, "shard"+strconv.Itoa(i+1)+".jsonl")
		cfg := base
		cfg.Shard = strconv.Itoa(i+1) + "/3"
		cfg.Checkpoint = shards[i]
		var out, errw bytes.Buffer
		if err := run(cfg, &out, &errw); err != nil {
			t.Fatalf("shard %d: %v", i+1, err)
		}
		if !strings.Contains(errw.String(), "shard "+strconv.Itoa(i+1)+"/3") {
			t.Fatalf("shard %d report missing:\n%s", i+1, errw.String())
		}
	}

	mergeCfg := base
	mergeCfg.Merge = "-"
	mergeCfg.MergeInputs = shards
	var merged, mergedErr bytes.Buffer
	if err := run(mergeCfg, &merged, &mergedErr); err != nil {
		t.Fatal(err)
	}
	if merged.String() != whole.String() {
		t.Fatalf("merged CSV diverged from whole run:\n%s\nvs\n%s", merged.String(), whole.String())
	}
	if !strings.Contains(mergedErr.String(), "merged 3 shard files") ||
		!strings.Contains(mergedErr.String(), "skipped cell") {
		t.Fatalf("merge report missing:\n%s", mergedErr.String())
	}

	// -merge to a file path writes the same bytes to disk.
	outPath := filepath.Join(dir, "merged.csv")
	mergeCfg.Merge = outPath
	if err := run(mergeCfg, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != whole.String() {
		t.Fatalf("-merge file diverged from whole run")
	}

	// A shard merged under different flags is refused on the
	// fingerprint.
	mismatch := mergeCfg
	mismatch.Seeds++
	if err := run(mismatch, &bytes.Buffer{}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "refusing to merge") {
		t.Fatalf("mismatched merge: err = %v, want fingerprint refusal", err)
	}
}

// A shard can itself be checkpoint-killed and resumed before merging.
func TestShardResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	cfg := goldenConfig()
	cfg.Shard = "2/2"
	cfg.Checkpoint = path
	var first bytes.Buffer
	if err := run(cfg, &first, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	var resumed bytes.Buffer
	if err := run(cfg, &resumed, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != first.String() {
		t.Fatalf("resumed shard output diverged:\n%s\nvs\n%s", resumed.String(), first.String())
	}
}

func TestShardMergeFlagErrors(t *testing.T) {
	base := goldenConfig()
	for name, mutate := range map[string]func(*config){
		"bad-shard":        func(c *config) { c.Shard = "5/2" },
		"malformed-shard":  func(c *config) { c.Shard = "two/three" },
		"merge-no-inputs":  func(c *config) { c.Merge = "-" },
		"merge-with-shard": func(c *config) { c.Merge = "-"; c.MergeInputs = []string{"x"}; c.Shard = "1/2" },
		"merge-with-ckpt":  func(c *config) { c.Merge = "-"; c.MergeInputs = []string{"x"}; c.Checkpoint = "c" },
		"merge-missing":    func(c *config) { c.Merge = "-"; c.MergeInputs = []string{"absent.jsonl"} },
		"stray-args":       func(c *config) { c.MergeInputs = []string{"stray.jsonl"} },
	} {
		cfg := base
		mutate(&cfg)
		if err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestPartitionAxisCLI: -partition adds the partition axis — B-TCTP
// cells become C-BTCTP, the CSV gains the partition column and the
// per-group DCDT columns, and non-partitionable algorithms are
// skipped rather than failed.
func TestPartitionAxisCLI(t *testing.T) {
	var out, errw bytes.Buffer
	cfg := csvConfig(req{
		Algorithms: "btctp,random", Targets: "12", Mules: "4", Speeds: "2",
		Placements: "clusters", Partition: "none,kmeans:4",
		Seeds: 2, Horizon: 5_000,
	})
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	header := lines[0]
	for _, col := range []string{"partition", "groups", "group_dcdt_s_1", "group_dcdt_s_4", "group_sd_s_4"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header misses %q: %s", col, header)
		}
	}
	// 2 algs × 2 partitions − the skipped random×kmeans:4 cell.
	if len(lines) != 1+3 {
		t.Fatalf("%d rows:\n%s", len(lines), out.String())
	}
	if !strings.Contains(out.String(), "kmeans:4") {
		t.Fatalf("partitioned cell missing:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "no partitioned variant") {
		t.Fatalf("skip report missing:\n%s", errw.String())
	}
	// The partitioned cell reports 4 groups.
	for _, line := range lines[1:] {
		if strings.Contains(line, "kmeans:4") && !strings.Contains(line, ",4.000,") {
			t.Fatalf("partitioned row misses groups=4: %s", line)
		}
	}
}

// TestPartitionFlagErrors: malformed -partition values are refused.
func TestPartitionFlagErrors(t *testing.T) {
	for _, bad := range []string{"kmeans", "kmeans:0", "voronoi:2", "kmeans:2:zzz"} {
		cfg := goldenConfig()
		cfg.Partition = bad
		var out, errw bytes.Buffer
		if err := run(cfg, &out, &errw); err == nil {
			t.Fatalf("-partition %q accepted", bad)
		}
	}
}

// TestPartitionShardMergeIdentical: the partition axis flows through
// plan fingerprints, shard checkpoints, and merge unchanged.
func TestPartitionShardMergeIdentical(t *testing.T) {
	dir := t.TempDir()
	mk := func() config {
		cfg := goldenConfig()
		cfg.Partition = "none,kmeans:2"
		return cfg
	}

	var whole, errw bytes.Buffer
	if err := run(mk(), &whole, &errw); err != nil {
		t.Fatal(err)
	}

	shards := make([]string, 2)
	for i := range shards {
		shards[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i+1))
		cfg := mk()
		cfg.Shard = fmt.Sprintf("%d/2", i+1)
		cfg.Checkpoint = shards[i]
		var out bytes.Buffer
		if err := run(cfg, &out, &errw); err != nil {
			t.Fatal(err)
		}
	}

	merged := filepath.Join(dir, "merged.csv")
	cfg := mk()
	cfg.Merge = merged
	cfg.MergeInputs = shards
	var out bytes.Buffer
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, whole.Bytes()) {
		t.Fatalf("merged partitioned sweep differs from the whole run:\n%s\nvs\n%s",
			got, whole.Bytes())
	}
}

// TestGrid10kSmoke drives the large-n preset end to end through the
// CLI: 10 000 targets planned with the spatially indexed C-BTCTP path
// (k-means partition, per-group circuits).
// The horizon is cut to keep the simulation share small — the preset
// exists to stress planning, and this test is the guard that the
// indexed paths stay feasible at that scale. Skipped under -short.
func TestGrid10kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke test")
	}
	var out, errw bytes.Buffer
	cfg := csvConfig(req{
		Algorithms: "btctp", Preset: "grid10k",
		Partition: "kmeans:16",
		Seeds:     1, Horizon: 2_000,
	})
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d output lines:\n%s", len(lines), out.String())
	}
	rec := strings.Split(lines[1], ",")
	if rec[1] != "10000" {
		t.Fatalf("targets = %s", rec[1])
	}
	if rec[2] != "16" {
		t.Fatalf("mules = %s", rec[2])
	}
}
