package patrol

import (
	"math"
	"reflect"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/xrand"
)

// partitioned returns the C-BTCTP variant with k groups, for tests
// that need a genuinely multi-group plan to break.
func partitioned(t *testing.T, k int) Algorithm {
	t.Helper()
	alg, err := Partitioned(Planned(&core.BTCTP{}), core.PartitionConfig{
		Method: core.KMeansMethod, K: k,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

// visitLog flattens every target's visit times for whole-run equality
// checks.
func visitLog(res *Result, n int) [][]float64 {
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = res.Recorder.VisitTimes(i)
	}
	return out
}

// TestReplanBoundaryDeterminism: the dynamic-world path is a pure
// function of (scenario, options, seed) — two identical runs with a
// mid-horizon kill and an absorb replan agree on every failure record,
// every replan record, and every visit of every target.
func TestReplanBoundaryDeterminism(t *testing.T) {
	s := scenario(7, 16, 4)
	opts := Options{
		Horizon: 30_000,
		Events:  []Event{{Time: 9_000, Kind: KillMule, Mule: 1}},
		Handoff: HandoffAbsorb,
	}
	a := run(t, s, partitioned(t, 2), opts, 3)
	b := run(t, s, partitioned(t, 2), opts, 3)
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Fatalf("failures differ: %v vs %v", a.Failures, b.Failures)
	}
	if !reflect.DeepEqual(a.Replans, b.Replans) {
		t.Fatalf("replans differ: %v vs %v", a.Replans, b.Replans)
	}
	if !reflect.DeepEqual(visitLog(a, s.NumTargets()), visitLog(b, s.NumTargets())) {
		t.Fatal("visit logs differ between identical dynamic runs")
	}
	if len(a.Failures) != 1 || a.Failures[0].Mule != 1 || a.Failures[0].Time != 9_000 {
		t.Fatalf("failures = %v, want mule 1 at t=9000", a.Failures)
	}
	if len(a.Replans) != 1 {
		t.Fatalf("replans = %v, want exactly one", a.Replans)
	}
}

// TestKillPrefixMatchesControl: up to the event boundary, a run with a
// scheduled kill is bit-identical to the never-killed control — the
// event machinery must not perturb the world before it fires.
func TestKillPrefixMatchesControl(t *testing.T) {
	s := scenario(11, 12, 3)
	const killAt = 8_000
	base := Options{Horizon: 20_000}
	killed := base
	killed.Events = []Event{{Time: killAt, Kind: KillMule, Mule: 0}}
	killed.Handoff = HandoffAbsorb

	control := run(t, s, partitioned(t, 2), base, 5)
	dynamic := run(t, s, partitioned(t, 2), killed, 5)
	for target := 0; target < s.NumTargets(); target++ {
		cv := control.Recorder.VisitTimes(target)
		dv := dynamic.Recorder.VisitTimes(target)
		for i := 0; i < len(cv) && i < len(dv); i++ {
			if cv[i] >= killAt || dv[i] >= killAt {
				break
			}
			if cv[i] != dv[i] {
				t.Fatalf("target %d visit %d: control %v vs killed %v (before the boundary)",
					target, i, cv[i], dv[i])
			}
		}
	}
	if ft, ok := dynamic.FirstFailureTime(); !ok || ft != killAt {
		t.Fatalf("FirstFailureTime = %v,%v, want %v,true", ft, ok, float64(killAt))
	}
}

// TestHandoffAbsorbRecoversCoverage: kill every mule of one group; with
// the absorb policy the orphaned targets are re-covered by the
// survivors, so every target is visited after the failure.
func TestHandoffAbsorbRecoversCoverage(t *testing.T) {
	s := scenario(3, 14, 4)
	// Discover the group structure from a static run of the same plan.
	probe := run(t, s, partitioned(t, 2), Options{Horizon: 1_000}, 2)
	if len(probe.Plan.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(probe.Plan.Groups))
	}
	const killAt = 10_000
	var evs []Event
	for _, mi := range probe.Plan.Groups[0].Mules {
		evs = append(evs, Event{Time: killAt, Kind: KillMule, Mule: mi})
	}
	opts := Options{Horizon: 40_000, Events: evs, Handoff: HandoffAbsorb}
	res := run(t, s, partitioned(t, 2), opts, 2)
	if len(res.Failures) != len(evs) {
		t.Fatalf("%d failures, want %d", len(res.Failures), len(evs))
	}
	if len(res.Replans) != 1 {
		t.Fatalf("replans = %v, want exactly one (one event batch)", res.Replans)
	}
	rp := res.Replans[0]
	if rp.Time != killAt || rp.Survivors != s.NumMules()-len(evs) {
		t.Fatalf("replan record %+v, want time %v survivors %d", rp, float64(killAt), s.NumMules()-len(evs))
	}
	rec := res.Recorder.TimeToRecoverOver(nil, killAt, opts.Horizon)
	for target := 0; target < s.NumTargets(); target++ {
		if res.Recorder.FirstVisitAfter(target, killAt) < 0 {
			t.Fatalf("target %d never visited after the absorb replan (recover=%v)", target, rec)
		}
	}
}

// TestHandoffNoneLeavesOrphans: the degraded baseline — killing a whole
// group under HandoffNone leaves its targets unvisited from the failure
// on, while the survivors keep patrolling theirs.
func TestHandoffNoneLeavesOrphans(t *testing.T) {
	s := scenario(3, 14, 4)
	probe := run(t, s, partitioned(t, 2), Options{Horizon: 1_000}, 2)
	const killAt = 10_000
	var evs []Event
	for _, mi := range probe.Plan.Groups[0].Mules {
		evs = append(evs, Event{Time: killAt, Kind: KillMule, Mule: mi})
	}
	opts := Options{Horizon: 40_000, Events: evs, Handoff: HandoffNone}
	res := run(t, s, partitioned(t, 2), opts, 2)
	if len(res.Replans) != 0 {
		t.Fatalf("replans = %v, want none under HandoffNone", res.Replans)
	}
	// Orphaned targets (group 0 minus any the survivors also pass): at
	// least one target must go dark; surviving group's targets must not.
	dark := 0
	for _, target := range probe.Plan.Groups[0].Targets {
		if res.Recorder.FirstVisitAfter(target, killAt+1_000) < 0 {
			dark++
		}
	}
	if dark == 0 {
		t.Fatal("no orphaned target went dark under HandoffNone")
	}
	for _, target := range probe.Plan.Groups[1].Targets {
		if res.Recorder.FirstVisitAfter(target, killAt) < 0 {
			t.Fatalf("surviving group's target %d went dark", target)
		}
	}
	gap := 0.0
	for _, target := range probe.Plan.Groups[0].Targets {
		gap = math.Max(gap, res.Recorder.AvgMaxGapOver([]int{target}, killAt, opts.Horizon))
	}
	if gap < 1_000 {
		t.Fatalf("orphan coverage gap %v suspiciously small", gap)
	}
}

// TestSpawnTargetDormancy: a spawned target is dormant — unplanned and
// unvisited — before its event time and patrolled after it (the spawn
// triggers an absorb replan that folds it into a group).
func TestSpawnTargetDormancy(t *testing.T) {
	s := scenario(9, 12, 3)
	const spawnAt = 6_000
	spawn := s.NumTargets() - 1 // any non-sink target
	opts := Options{
		Horizon: 30_000,
		Events:  []Event{{Time: spawnAt, Kind: SpawnTarget, Target: spawn}},
		Handoff: HandoffAbsorb,
	}
	res := run(t, s, partitioned(t, 2), opts, 4)
	if n := res.Recorder.VisitTimes(spawn); len(n) > 0 && n[0] < spawnAt {
		t.Fatalf("dormant target %d visited at %v, before its spawn at %v", spawn, n[0], float64(spawnAt))
	}
	if res.Recorder.FirstVisitAfter(spawn, spawnAt) < 0 {
		t.Fatalf("spawned target %d never visited after activation", spawn)
	}
	if len(res.Replans) != 1 {
		t.Fatalf("replans = %v, want one at the spawn boundary", res.Replans)
	}
	// The initial plan must not route anyone over the dormant target.
	for _, g := range res.Plan.Groups {
		for _, tid := range g.Targets {
			if tid == spawn {
				t.Fatalf("initial plan owns the dormant target %d", spawn)
			}
		}
	}
}

// TestOnlineAlgorithmRejectsSpawns: online (plan-free) algorithms
// cannot patrol dormant targets; Run must refuse, and Plannable must
// say so in advance.
func TestOnlineAlgorithmRejectsSpawns(t *testing.T) {
	s := scenario(13, 8, 2)
	if !Plannable(Planned(&core.BTCTP{})) {
		t.Fatal("Planned algorithm reported not plannable")
	}
	alg := Online(&baseline.Random{})
	if Plannable(alg) {
		t.Fatal("online algorithm reported plannable")
	}
	opts := Options{
		Horizon: 5_000,
		Events:  []Event{{Time: 1_000, Kind: SpawnTarget, Target: 1}},
	}
	if _, err := Run(s, alg, opts, xrand.New(1)); err == nil {
		t.Fatal("Run accepted a spawn schedule for an online algorithm")
	}
}

// TestRandomFailuresSeeded: the axis kill schedule is a pure function
// of the source state — same seed, same schedule; rate 0 and 1 hit
// their extremes; times are sorted and inside the horizon.
func TestRandomFailuresSeeded(t *testing.T) {
	a := RandomFailures(10, 0.5, 1_000, xrand.New(42))
	b := RandomFailures(10, 0.5, 1_000, xrand.New(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if len(RandomFailures(10, 0, 1_000, xrand.New(1))) != 0 {
		t.Fatal("rate 0 produced failures")
	}
	all := RandomFailures(10, 1, 1_000, xrand.New(1))
	if len(all) != 10 {
		t.Fatalf("rate 1 killed %d of 10", len(all))
	}
	for i, ev := range all {
		if ev.Time < 0 || ev.Time >= 1_000 {
			t.Fatalf("failure time %v outside [0,1000)", ev.Time)
		}
		if i > 0 && all[i-1].Time > ev.Time {
			t.Fatalf("schedule unsorted at %d", i)
		}
	}
}
