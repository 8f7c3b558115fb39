package patrol

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/mule"
	"tctp/internal/xrand"
)

// aheadFamilies names the algorithm families randomAheadCase draws;
// only the last never runs a mule ahead.
var aheadFamilies = []string{"sweep-kmeans", "sweep-sectors", "cbtctp", "cwtctp", "btctp-1", "btctp", "wtctp", "chb", "speeds", "mixed", "random"}

// randomAheadCase draws a run for the run-ahead tests from the named
// family: Sweep by k-means or sectors, C-BTCTP or C-WTCTP with fewer
// regions than mules (so some groups get one mule and others several),
// a one-mule B-TCTP, a B-TCTP, W-TCTP or CHB fleet of at least two
// mules on one shared circuit, or the online Random baseline. Speeds,
// dwells, fleet speeds, unsynchronized starts and small MaxEvents are
// drawn across all of them. Two families put a shared circuit under
// stress: in "speeds" every member of the fleet has a speed of its
// own, up to seven times another's, so mules overtake each other, and
// in "mixed" one member has a battery of its own, which keeps it on the
// engine while the rest run ahead. A planner that draws random numbers
// consumes its source, so each call of the returned alg builds the
// algorithm afresh from the same seed.
func randomAheadCase(rng *rand.Rand, family string) (s *field.Scenario, alg func() Algorithm, opts Options) {
	mules := 1 + rng.Intn(8)
	switch family {
	case "btctp-1":
		mules = 1
	case "btctp", "wtctp", "chb", "speeds", "mixed":
		mules++
	}
	targets := mules + rng.Intn(16)
	if family == "btctp-1" {
		targets++ // a one-target circuit has no travel to pace it
	}
	s = field.Generate(field.Config{
		NumTargets: targets,
		NumMules:   mules,
		Placement:  []field.Placement{field.Uniform, field.Clusters, field.Grid}[rng.Intn(3)],
	}, xrand.New(uint64(rng.Int63())))
	model := energy.Default()
	model.Dwell = []float64{0, 0.5, 1, 1, 3}[rng.Intn(5)]
	opts = Options{
		Horizon: float64(200 + rng.Intn(20_000)),
		Energy:  model,
		Speed:   []float64{1, 2, 5}[rng.Intn(3)],
	}
	if model.Dwell == 0 {
		// A mule alone with one target and no dwell has a zero period
		// and spins at one instant until the MaxEvents guard stops it.
		opts.MaxEvents = 100_000
	}
	if rng.Intn(8) == 0 {
		opts.MaxEvents = uint64(50 + rng.Intn(30_000))
	}
	if rng.Intn(4) == 0 {
		opts.Fleet = make([]FleetMember, mules)
		for i := range opts.Fleet {
			opts.Fleet[i].Speed = []float64{0, 0.7, 2, 3.5}[rng.Intn(4)]
		}
	}
	opts.NoSynchronizedStart = rng.Intn(5) == 0
	dwell := model.Dwell
	if dwell == 0 {
		dwell = core.NoDwell
	}
	seed := uint64(rng.Int63())
	switch family {
	case "speeds":
		opts.Fleet = make([]FleetMember, mules)
		for i, k := range rng.Perm(mules) {
			opts.Fleet[i].Speed = 0.5 * float64(1+k%7)
		}
		family = []string{"btctp", "wtctp", "chb"}[rng.Intn(3)]
	case "mixed":
		if opts.Fleet == nil {
			opts.Fleet = make([]FleetMember, mules)
		}
		opts.Fleet[rng.Intn(mules)].Battery = 1e12
		family = []string{"btctp", "wtctp", "chb"}[rng.Intn(3)]
	}
	switch family {
	case "sweep-kmeans":
		alg = func() Algorithm {
			return Planned(&baseline.Sweep{Partition: core.KMeansMethod, Rand: xrand.New(seed)})
		}
	case "sweep-sectors":
		alg = func() Algorithm { return Planned(&baseline.Sweep{Partition: core.SectorsMethod}) }
	case "cbtctp", "cwtctp":
		var p core.Planner = &core.BTCTP{Dwell: dwell}
		if family == "cwtctp" {
			s.AssignVIPs(xrand.New(seed), rng.Intn(3), 2+rng.Intn(2))
			p = &core.WTCTP{Dwell: dwell}
		}
		cfg := core.PartitionConfig{
			Method: []core.PartitionMethod{core.KMeansMethod, core.SectorsMethod}[rng.Intn(2)],
			K:      1 + rng.Intn(mules),
			Alloc:  []core.AllocPolicy{core.AllocByLength, core.AllocByCount}[rng.Intn(2)],
		}
		alg = func() Algorithm {
			a, err := Partitioned(Planned(p), cfg, xrand.New(seed))
			if err != nil {
				panic(err)
			}
			return a
		}
	case "btctp-1", "btctp":
		alg = func() Algorithm { return Planned(&core.BTCTP{Dwell: dwell}) }
	case "wtctp":
		alg = func() Algorithm { return Planned(&core.WTCTP{Dwell: dwell}) }
	case "chb":
		alg = func() Algorithm { return Planned(&baseline.CHB{}) }
	default:
		alg = func() Algorithm { return Online(&baseline.Random{}) }
	}
	return s, alg, opts
}

// aheadMules returns which mules Run lets run ahead for these inputs.
func aheadMules(s *field.Scenario, plan *core.FleetPlan, opts Options) []bool {
	opts = opts.withDefaults()
	caps := visitCaps(s.NumTargets(), plan, opts)
	ahead := make([]bool, s.NumMules())
	for i := range ahead {
		ahead[i] = plan != nil && runsAhead(i, plan.Routes[i], caps, opts)
	}
	return ahead
}

// diffResults describes the first difference between two results,
// comparing every float by its bits, or returns "".
func diffResults(a, b *Result) string {
	if a.Algorithm != b.Algorithm {
		return fmt.Sprintf("algorithm %q vs %q", a.Algorithm, b.Algorithm)
	}
	if math.Float64bits(a.PatrolStart) != math.Float64bits(b.PatrolStart) {
		return fmt.Sprintf("patrol start %v vs %v", a.PatrolStart, b.PatrolStart)
	}
	if len(a.Mules) != len(b.Mules) {
		return fmt.Sprintf("%d vs %d mules", len(a.Mules), len(b.Mules))
	}
	for i, x := range a.Mules {
		y := b.Mules[i]
		if math.Float64bits(x.Distance) != math.Float64bits(y.Distance) ||
			math.Float64bits(x.EnergyConsumed) != math.Float64bits(y.EnergyConsumed) ||
			x.Visits != y.Visits || x.Recharges != y.Recharges || x.Dead != y.Dead {
			return fmt.Sprintf("mule %d stats %+v vs %+v", i, x, y)
		}
	}
	if a.Recorder.NumTargets() != b.Recorder.NumTargets() {
		return "target counts differ"
	}
	for id := 0; id < a.Recorder.NumTargets(); id++ {
		x, y := a.Recorder.VisitTimes(id), b.Recorder.VisitTimes(id)
		if len(x) != len(y) {
			return fmt.Sprintf("target %d: %d vs %d visits", id, len(x), len(y))
		}
		for k := range x {
			if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
				return fmt.Sprintf("target %d visit %d at %v vs %v", id, k, x[k], y[k])
			}
		}
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Sprintf("%d vs %d groups", len(a.Groups), len(b.Groups))
	}
	for g, x := range a.Groups {
		y := b.Groups[g]
		if !reflect.DeepEqual(x.Targets, y.Targets) || !reflect.DeepEqual(x.Mules, y.Mules) ||
			math.Float64bits(x.WalkLength) != math.Float64bits(y.WalkLength) ||
			math.Float64bits(x.Distance) != math.Float64bits(y.Distance) ||
			math.Float64bits(x.EnergyConsumed) != math.Float64bits(y.EnergyConsumed) ||
			x.Visits != y.Visits {
			return fmt.Sprintf("group %d %+v vs %+v", g, x, y)
		}
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) || !reflect.DeepEqual(a.Replans, b.Replans) {
		return fmt.Sprintf("failures %v replans %v vs %v %v", a.Failures, a.Replans, b.Failures, b.Replans)
	}
	if !reflect.DeepEqual(a.Plan, b.Plan) {
		return "plans differ"
	}
	return ""
}

// anyVisit returns a random recorded visit instant, or 0 when the run
// recorded none.
func anyVisit(rng *rand.Rand, res *Result) float64 {
	var all []float64
	for id := 0; id < res.Recorder.NumTargets(); id++ {
		all = append(all, res.Recorder.VisitTimes(id)...)
	}
	if len(all) == 0 {
		return 0
	}
	return all[rng.Intn(len(all))]
}

// TestRunAheadMatchesEventPath is the run-ahead oracle: attaching a
// no-op observer puts every mule back on the engine, so across random
// runs of every family, Run must produce the same visit logs, mule and
// group statistics, patrol start and plan with and without one. Some
// runs also carry a mid-run failure, which must keep every mule on the
// engine; some have horizons that land exactly on an arrival. Mules
// that run ahead run their cycles from the compiled leg table, and the
// test fails unless some did: an ahead mule that made two cycle visits
// took the table path for the second at least, since it then stood at
// the first visit's stop, the second leg's from point. Mules that share
// a circuit leave each target's log in several time-sorted runs, and
// the test fails unless the recorder merged some log from at least two
// runs, some while a mule kept to the engine, and unless some fleet
// with speeds of its own saw a mule lap another.
func TestRunAheadMatchesEventPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 1320
	var ran, mixed, onArrival, failures, skipped, fleets, unsynced, noDwell, tabled, merged, mixedMerged, lapped int
	families := map[string]int{}
	for i := 0; i < n; i++ {
		family := aheadFamilies[i%len(aheadFamilies)]
		s, alg, opts := randomAheadCase(rng, family)
		if rng.Intn(10) == 0 {
			opts.Events = []Event{{Time: rng.Float64() * opts.Horizon, Kind: KillMule, Mule: rng.Intn(s.NumMules())}}
			opts.Handoff = Handoff(rng.Intn(2))
		}
		observed := opts
		observed.Observers = []Observer{ObserverFuncs{}}
		if rng.Intn(4) == 0 {
			// Move the horizon onto a recorded arrival.
			res, err := Run(s, alg(), observed, xrand.New(uint64(i)))
			if err != nil {
				skipped++
				continue
			}
			if v := anyVisit(rng, res); v > 0 {
				opts.Horizon, observed.Horizon = v, v
				onArrival++
			}
		}
		got, err := Run(s, alg(), opts, xrand.New(uint64(i)))
		want, werr := Run(s, alg(), observed, xrand.New(uint64(i)))
		if (err == nil) != (werr == nil) {
			t.Fatalf("case %d (%s): errors %v and %v", i, family, err, werr)
		}
		if err != nil {
			skipped++ // e.g. a fleet the planner refuses
			continue
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("case %d (%s, %s, horizon %v, dwell %v, max events %d, fleet %v, unsynced %v, events %v): %s",
				i, family, got.Algorithm, opts.Horizon, opts.Energy.Dwell, opts.MaxEvents, opts.Fleet,
				opts.NoSynchronizedStart, opts.Events, d)
		}
		if want.Recorder.Merged() != 0 {
			t.Fatalf("case %d (%s): the engine path merged runs", i, family)
		}
		ran++
		some := 0
		for j, a := range aheadMules(s, got.Plan, opts) {
			if !a {
				continue
			}
			some++
			visits := got.Mules[j].Visits
			for _, wp := range got.Plan.Routes[j].Approach {
				if wp.TargetID != mule.NoTarget {
					visits--
				}
			}
			if visits >= 2 {
				tabled++
			}
		}
		if some > 0 {
			families[family]++
		}
		if got.Recorder.Merged() >= 2 {
			merged++
			if some < s.NumMules() {
				mixedMerged++
			}
		}
		if family == "speeds" && some > 0 && laps(got) {
			lapped++
		}
		if some > 0 && some < s.NumMules() {
			mixed++
		}
		if some > 0 && opts.Fleet != nil {
			fleets++
		}
		if some > 0 && opts.NoSynchronizedStart {
			unsynced++
		}
		if some > 0 && opts.Energy.Dwell == 0 {
			noDwell++
		}
		if len(got.Failures) > 0 {
			failures++
		}
	}
	t.Logf("%d runs (%d skipped): %v ran mules ahead, %d mules made visits from their compiled cycle, %d merged a log from several runs (%d with a mule on the engine), %d lapped a mule, %d with mules on both clocks, %d with fleet speeds, %d unsynchronized, %d without dwell; %d horizons on an arrival, %d with a failure",
		ran, skipped, families, tabled, merged, mixedMerged, lapped, mixed, fleets, unsynced, noDwell, onArrival, failures)
	if tabled == 0 {
		t.Fatal("no mule made visits from its compiled cycle")
	}
	if merged == 0 || mixedMerged == 0 {
		t.Fatal("no log was merged from several runs, with and without a mule on the engine")
	}
	if lapped == 0 {
		t.Fatal("no mule lapped another on a shared circuit")
	}
	for _, f := range aheadFamilies[:len(aheadFamilies)-1] {
		if families[f] == 0 {
			t.Fatalf("no %s run ran a mule ahead: %v", f, families)
		}
	}
	if families["random"] > 0 {
		t.Fatalf("an online run ran a mule ahead: %v", families)
	}
	if mixed == 0 || fleets == 0 || unsynced == 0 || noDwell == 0 || onArrival == 0 || failures == 0 {
		t.Fatal("the random runs miss a case the oracle must cover")
	}
}

// laps reports whether some mule of a shared circuit visited at least
// two rounds of its group's walk more than another: the mules start
// less than one round apart, so it has overtaken that mule.
func laps(res *Result) bool {
	for _, g := range res.Plan.Groups {
		lo, hi := math.MaxInt, 0
		for _, m := range g.Mules {
			lo, hi = min(lo, res.Mules[m].Visits), max(hi, res.Mules[m].Visits)
		}
		if len(g.Mules) > 1 && hi-lo >= 2*g.Walk.Size() {
			return true
		}
	}
	return false
}

// metamorphicCase draws a Sweep, C-BTCTP or B-TCTP run for the
// metamorphic relations below, with a dwell and the default MaxEvents
// so that no route has a zero period and the guard never stops a run.
func metamorphicCase(rng *rand.Rand, i int) (*field.Scenario, func() Algorithm, Options) {
	s, alg, opts := randomAheadCase(rng, []string{"sweep-kmeans", "sweep-sectors", "cbtctp", "btctp-1", "btctp"}[i%5])
	opts.MaxEvents = 0
	if opts.Energy.Dwell == 0 {
		opts.Energy.Dwell = 0.5
	}
	return s, alg, opts
}

// TestEventAfterHorizonChangesNothing: an event schedule whose only
// event falls after the horizon puts every mule on the engine and
// must leave every Result field bit-identical.
func TestEventAfterHorizonChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		s, alg, opts := metamorphicCase(rng, i)
		late := opts
		late.Events = []Event{{Time: opts.Horizon * (1 + rng.Float64()), Kind: KillMule, Mule: rng.Intn(s.NumMules())}}
		if rng.Intn(2) == 0 {
			late.Events[0].Time = math.Nextafter(opts.Horizon, math.Inf(1))
		}
		late.Handoff = Handoff(rng.Intn(2))
		got, err := Run(s, alg(), opts, nil)
		if err != nil {
			continue
		}
		want := run(t, s, alg(), late, 0)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("case %d (%s, horizon %v): %s", i, got.Algorithm, opts.Horizon, d)
		}
	}
}

// TestLongerHorizonExtendsShorter: a run to horizon 2H records exactly
// the visits of a run to H up to H — in every target's log, and in
// each group's mule statistics, whose visit counts must add up to the
// longer run's visits up to H — with H on a recorded arrival, so a
// mule that stops one arrival early or late at the horizon fails it.
func TestLongerHorizonExtendsShorter(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 150; i++ {
		s, alg, opts := metamorphicCase(rng, i)
		probe, err := Run(s, alg(), opts, nil)
		if err != nil {
			continue
		}
		h := anyVisit(rng, probe)
		if h == 0 {
			continue
		}
		short, long := opts, opts
		short.Horizon, long.Horizon = h, 2*h
		a, b := run(t, s, alg(), short, 0), run(t, s, alg(), long, 0)
		upToH := make([]int, s.NumTargets()) // the longer run's visits up to H
		for id := range upToH {
			x, y := a.Recorder.VisitTimes(id), b.Recorder.VisitTimes(id)
			k := 0
			for k < len(y) && y[k] <= h {
				k++
			}
			upToH[id] = k
			same := len(x) == k
			for j := 0; same && j < k; j++ {
				same = math.Float64bits(x[j]) == math.Float64bits(y[j])
			}
			if !same {
				t.Fatalf("case %d (%s, H %v): target %d logs %v up to H, %v at 2H", i, a.Algorithm, h, id, x, y[:k])
			}
		}
		for g, grp := range a.Groups {
			mules, logged := 0, 0
			for _, m := range grp.Mules {
				mules += a.Mules[m].Visits
			}
			for _, id := range grp.Targets {
				logged += upToH[id]
			}
			if mules != logged || grp.Visits != mules {
				t.Fatalf("case %d (%s, H %v): group %d's mules visited %d times to H, the longer run %d",
					i, a.Algorithm, h, g, mules, logged)
			}
		}
	}
}

// TestRunAheadDisqualifiers shows each condition that keeps a mule on
// the engine. The base run, Sweep with nearly one mule per target,
// runs every mule ahead, and a target two routes share, or a shared
// B-TCTP circuit, keeps none on the engine.
func TestRunAheadDisqualifiers(t *testing.T) {
	s := scenario(36, 10, 8)
	plan, err := (&baseline.Sweep{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Horizon: 100_000}
	all := make([]bool, s.NumMules())
	for i := range all {
		all[i] = true
	}
	if got := aheadMules(s, plan, base); !reflect.DeepEqual(got, all) {
		t.Fatalf("base run: ahead %v, want every mule", got)
	}
	none := make([]bool, s.NumMules())
	except := func(mules ...int) []bool {
		want := append([]bool(nil), all...)
		for _, m := range mules {
			want[m] = false
		}
		return want
	}
	// withStops returns a copy of the plan whose route r has its first
	// cycle phase's stops passed through edit.
	withStops := func(r int, edit func([]mule.Waypoint) []mule.Waypoint) *core.FleetPlan {
		p := *plan
		p.Routes = append([]core.MuleRoute(nil), plan.Routes...)
		cycle := append([]core.Phase(nil), p.Routes[r].Cycle...)
		cycle[0].Stops = edit(append([]mule.Waypoint(nil), cycle[0].Stops...))
		p.Routes[r].Cycle = cycle
		return &p
	}
	other := plan.Routes[0].Cycle[0].Stops[0]
	battery := base
	battery.Fleet = make([]FleetMember, s.NumMules())
	battery.Fleet[3].Battery = 1e6
	zeroDwell := base
	zeroDwell.Energy = energy.Default()
	zeroDwell.Energy.Dwell = 0
	lone := false
	for _, r := range plan.Routes {
		lone = lone || len(r.Cycle) == 1 && len(r.Cycle[0].Stops) == 1
	}
	if !lone {
		t.Fatal("the base plan has no one-stop route for the zero-period case")
	}
	for _, tc := range []struct {
		name string
		plan *core.FleetPlan
		opts Options
		want []bool
	}{
		{"observer", plan, Options{Horizon: base.Horizon, Observers: []Observer{ObserverFuncs{}}}, none},
		{"event", plan, Options{Horizon: base.Horizon, Events: []Event{{Time: 2 * base.Horizon, Kind: KillMule}}}, none},
		{"run battery", plan, Options{Horizon: base.Horizon, UseBattery: true}, none},
		{"fleet-member battery", plan, battery, except(3)},
		{"recharge stop", withStops(2, func(w []mule.Waypoint) []mule.Waypoint {
			w[0].Recharge = true
			return w
		}), base, except(2)},
		{"shared target", withStops(5, func(w []mule.Waypoint) []mule.Waypoint {
			return append(w, other)
		}), base, all},
		{"zero-period route", plan, zeroDwell, none},
		{"event bound above MaxEvents", plan, Options{Horizon: base.Horizon, MaxEvents: 100_000}, none},
		{"NaN horizon", plan, Options{Horizon: math.NaN()}, none},
		{"online algorithm", nil, base, none},
	} {
		if got := aheadMules(s, tc.plan, tc.opts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ahead %v, want %v", tc.name, got, tc.want)
		}
	}
	// A shared-circuit fleet and a one-mule circuit, as planned.
	btctp, err := (&core.BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := aheadMules(s, btctp, base); !reflect.DeepEqual(got, all) {
		t.Errorf("shared B-TCTP circuit: ahead %v, want every mule", got)
	}
	one := scenario(37, 10, 1)
	solo, err := (&core.BTCTP{}).Plan(one)
	if err != nil {
		t.Fatal(err)
	}
	if got := aheadMules(one, solo, base); !reflect.DeepEqual(got, []bool{true}) {
		t.Errorf("one-mule B-TCTP: ahead %v, want [true]", got)
	}
}
