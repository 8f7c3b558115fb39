package patrol

import (
	"math"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/metrics"
	"tctp/internal/xrand"
)

func scenario(seed uint64, targets, mules int) *field.Scenario {
	return mustGenerate(field.Config{
		NumTargets: targets,
		NumMules:   mules,
		Placement:  field.Uniform,
	}, xrand.New(seed))
}

func run(t *testing.T, s *field.Scenario, alg Algorithm, opts Options, seed uint64) *Result {
	t.Helper()
	res, err := Run(s, alg, opts, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// intervalsAfter returns the gaps between target's consecutive visits
// at or after t0.
func intervalsAfter(rec *metrics.Recorder, target int, t0 float64) []float64 {
	var out []float64
	for i, ts := 1, rec.VisitTimes(target); i < len(ts); i++ {
		if ts[i-1] >= t0 {
			out = append(out, ts[i]-ts[i-1])
		}
	}
	return out
}

// everyTargetVisited reports whether the recorder logged at least one
// visit to every target.
func everyTargetVisited(rec *metrics.Recorder) bool {
	for target := 0; target < rec.NumTargets(); target++ {
		if len(rec.VisitTimes(target)) == 0 {
			return false
		}
	}
	return true
}

// TestBTCTPSteadyStateSDZero is the headline correctness property: in
// steady state, B-TCTP visits every target at the exact period
// |P|/(n·v), so the per-target SD of the visiting intervals is zero to
// floating-point precision (paper Fig. 8: "the SD of the proposed TCTP
// always keeps zero").
func TestBTCTPSteadyStateSDZero(t *testing.T) {
	// Fleet sizes near the target count matter: with many mules some
	// start point falls on the walk's closing edge, which once caused
	// an S·dwell phase error (regression coverage for the stopsBefore
	// accounting in loopFrom).
	for _, mules := range []int{1, 2, 4, 8, 10} {
		s := scenario(10+uint64(mules), 15, mules)
		res := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 60_000}, 1)
		warmup := res.PatrolStart + 1 // skip the initialization transient
		for target := 0; target < s.NumTargets(); target++ {
			iv := intervalsAfter(res.Recorder, target, warmup)
			if len(iv) < 3 {
				t.Fatalf("mules=%d: target %d has only %d steady intervals", mules, target, len(iv))
			}
			sd := res.Recorder.SDAfter(target, warmup)
			if sd > 1e-6 {
				t.Fatalf("mules=%d: target %d steady-state SD = %v, want ~0 (intervals %v)",
					mules, target, sd, iv[:3])
			}
		}
	}
}

// TestBTCTPIntervalMatchesTheory: the steady-state visiting interval
// equals walk length / (n · v) — plus n·dwell, since each mule pauses
// at every target.
func TestBTCTPIntervalMatchesTheory(t *testing.T) {
	s := scenario(20, 12, 3)
	opts := Options{Horizon: 60_000}
	res := run(t, s, Planned(&core.BTCTP{}), opts, 1)
	pts := s.Points()
	L := res.Plan.Groups[0].Walk.Length(pts)
	// One full circuit takes L/v plus one dwell per stop (default
	// dwell 1 s); with 3 mules equally spaced the per-target interval
	// is a third of that.
	nStops := float64(res.Plan.Groups[0].Walk.Size())
	circuit := L/2 + nStops*1.0
	want := circuit / 3
	warmup := res.PatrolStart + 1
	for target := 0; target < s.NumTargets(); target++ {
		iv := intervalsAfter(res.Recorder, target, warmup)
		for _, x := range iv {
			if math.Abs(x-want) > 1e-6 {
				t.Fatalf("target %d interval %v, want %v", target, x, want)
			}
		}
	}
}

// TestBTCTPClosedForm pins the paper's Fig. 8 claim in closed form
// across random static, battery-free scenarios: m equal-speed mules on
// one B-TCTP circuit of length L, visiting s targets with dwell d, each
// go round in P = L/v + s·d, so once the patrol has started every
// target's interval is P/m, within 1e-6 s, and its SD is 0 within
// 1e-6 s. It must hold both where every mule runs ahead of the engine,
// with each target's log merged from one run per mule, and where a
// no-op observer keeps every mule on the engine.
func TestBTCTPClosedForm(t *testing.T) {
	const tol = 1e-6
	rng := xrand.New(19)
	merged := 0
	for i := 0; i < 200; i++ {
		mules := 1 + rng.Intn(8)
		s := mustGenerate(field.Config{
			NumTargets: mules + 2 + rng.Intn(30),
			NumMules:   mules,
			Placement:  []field.Placement{field.Uniform, field.Clusters, field.Grid}[rng.Intn(3)],
		}, xrand.New(rng.Uint64()))
		model := energy.Default()
		model.Dwell = []float64{0, 0.5, 1, 3}[rng.Intn(4)]
		dwell := model.Dwell
		if dwell == 0 {
			dwell = core.NoDwell
		}
		opts := Options{Horizon: 60_000, Energy: model, Speed: []float64{1, 2, 5}[rng.Intn(3)]}
		observed := opts
		observed.Observers = []Observer{ObserverFuncs{}}
		for _, o := range []Options{opts, observed} {
			res := run(t, s, Planned(&core.BTCTP{Dwell: dwell}), o, 1)
			g := res.Plan.Groups[0]
			p := g.Walk.Length(s.Points())/o.Speed + float64(g.Walk.Size())*model.Dwell
			want := p / float64(mules)
			warm := res.PatrolStart
			for _, r := range res.Plan.Routes {
				warm = math.Max(warm, res.PatrolStart+r.ExtraHold)
			}
			for target := 0; target < s.NumTargets(); target++ {
				iv := intervalsAfter(res.Recorder, target, warm)
				if len(iv) < 3 {
					t.Fatalf("case %d: target %d has %d steady intervals", i, target, len(iv))
				}
				for _, x := range iv {
					if math.Abs(x-want) > tol {
						t.Fatalf("case %d (%d mules, %d targets, observers %d): target %d interval %v, want P/m = %v",
							i, mules, s.NumTargets(), len(o.Observers), target, x, want)
					}
				}
				if sd := res.Recorder.SDAfter(target, warm); sd > tol {
					t.Fatalf("case %d: target %d SD %v", i, target, sd)
				}
			}
			if len(o.Observers) == 0 && res.Recorder.Merged() >= 2 {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Fatal("no run merged a log from several mules' runs")
	}
}

// TestSharedCircuitClosedForm carries TestBTCTPClosedForm to the other
// static shared circuits: CHB, and W-TCTP without VIPs and with VIPs
// of weight 2–4 under both break policies. Each of m mules goes round
// the group walk in P = L/v + S·d (S stops, dwell d), so a target
// occurring o times in the walk is visited m·o times per period, and
// once the patrol has started t[i+m·o] − t[i] = P within 1e-6 s for
// every i; for W-TCTP, o is the target's weight. Neither planner spaces the visits evenly (CHB keeps the
// spacing its mules' entry points give, down to co-travelling mules
// that log zero intervals), so the closed form is on the period, not
// on the interval. It must hold where every mule runs ahead, each log
// merged from several runs, and where a no-op observer keeps every
// mule on the engine.
func TestSharedCircuitClosedForm(t *testing.T) {
	const tol = 1e-6
	rng := xrand.New(29)
	merged, zeros, repeats := 0, 0, 0
	for i := 0; i < 240; i++ {
		mules := 1 + rng.Intn(8)
		s := mustGenerate(field.Config{
			NumTargets: mules + 2 + rng.Intn(30),
			NumMules:   mules,
			Placement:  []field.Placement{field.Uniform, field.Clusters, field.Grid}[rng.Intn(3)],
		}, xrand.New(rng.Uint64()))
		if rng.Intn(2) == 0 {
			s.AssignVIPs(rng, 1+rng.Intn(3), 2+rng.Intn(3))
		}
		model := energy.Default()
		model.Dwell = []float64{0, 0.5, 1, 3}[rng.Intn(4)]
		dwell := model.Dwell
		if dwell == 0 {
			dwell = core.NoDwell
		}
		// Both runs of a case plan the same walk: a RandomBreak planner
		// draws its breaks afresh from the same seed.
		breaks := rng.Uint64()
		planner := func() core.Planner {
			switch i % 3 {
			case 0:
				return &baseline.CHB{}
			case 1:
				return &core.WTCTP{Dwell: dwell}
			}
			return &core.WTCTP{Dwell: dwell, Policy: core.RandomBreak, Rand: xrand.New(breaks)}
		}
		opts := Options{Horizon: 60_000, Energy: model, Speed: []float64{1, 2, 5}[rng.Intn(3)]}
		observed := opts
		observed.Observers = []Observer{ObserverFuncs{}}
		for _, o := range []Options{opts, observed} {
			res := run(t, s, Planned(planner()), o, 1)
			g := res.Plan.Groups[0]
			p := g.Walk.Length(s.Points())/o.Speed + float64(g.Walk.Size())*model.Dwell
			warm := res.PatrolStart
			for _, r := range res.Plan.Routes {
				warm = math.Max(warm, res.PatrolStart+r.ExtraHold)
			}
			for target := 0; target < s.NumTargets(); target++ {
				// W-TCTP's walk holds a target of weight w w times
				// (Definition 3); CHB's circuit holds each once.
				occ := g.Walk.Occurrences(target)
				if want := s.Targets[target].Weight; i%3 == 0 && occ != 1 || i%3 != 0 && occ != want {
					t.Fatalf("case %d (%s): target %d of weight %d occurs %d times in the walk",
						i, res.Algorithm, target, want, occ)
				}
				if occ > 1 {
					repeats++
				}
				k := mules * occ
				ts := res.Recorder.VisitTimes(target)
				steady := 0
				for j := 0; j+k < len(ts); j++ {
					if ts[j] < warm {
						continue
					}
					steady++
					if d := ts[j+k] - ts[j]; math.Abs(d-p) > tol {
						t.Fatalf("case %d (%s, %d mules, %d targets, observers %d): target %d t[%d+%d] − t[%d] = %v, want P = %v",
							i, res.Algorithm, mules, s.NumTargets(), len(o.Observers), target, j, k, j, d, p)
					}
					if ts[j+1] == ts[j] && i%3 == 0 {
						zeros++
					}
				}
				if steady < 3 {
					t.Fatalf("case %d: target %d has %d steady periods", i, target, steady)
				}
			}
			if len(o.Observers) == 0 && res.Recorder.Merged() >= 2 {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Fatal("no run merged a log from several mules' runs")
	}
	if zeros == 0 {
		t.Fatal("no CHB run logged a zero interval")
	}
	if repeats == 0 {
		t.Fatal("no W-TCTP walk visited a VIP more than once")
	}
}

func TestCHBUnbalancedIntervals(t *testing.T) {
	// CHB with clumped mules has no balancing: SD must be clearly
	// positive (paper Fig. 8 contrast).
	s := scenario(21, 15, 4)
	res := run(t, s, Planned(&baseline.CHB{}), Options{Horizon: 80_000}, 1)
	warmup := res.PatrolStart + 1
	if sd := res.Recorder.AvgSDAfter(warmup); sd <= 1.0 {
		t.Fatalf("CHB average SD = %v, expected clearly positive", sd)
	}
}

func TestTCTPBeatsCHBOnSD(t *testing.T) {
	s := scenario(22, 20, 4)
	tctp := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 80_000}, 1)
	chb := run(t, s, Planned(&baseline.CHB{}), Options{Horizon: 80_000}, 1)
	tSD := tctp.Recorder.AvgSDAfter(tctp.PatrolStart + 1)
	cSD := chb.Recorder.AvgSDAfter(chb.PatrolStart + 1)
	if tSD >= cSD {
		t.Fatalf("B-TCTP SD %v not below CHB SD %v", tSD, cSD)
	}
}

func TestRandomRuns(t *testing.T) {
	s := scenario(23, 12, 3)
	res := run(t, s, Online(&baseline.Random{}), Options{Horizon: 60_000}, 5)
	if res.Algorithm != "Random" {
		t.Fatalf("Algorithm = %q", res.Algorithm)
	}
	if res.Plan != nil {
		t.Fatal("online algorithm produced a plan")
	}
	if res.TotalVisits() == 0 {
		t.Fatal("random fleet never visited anything")
	}
	// Random must be far noisier than TCTP.
	tctp := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 60_000}, 5)
	if res.Recorder.AvgSD() <= tctp.Recorder.AvgSDAfter(tctp.PatrolStart+1) {
		t.Fatal("random SD not above TCTP SD")
	}
}

func TestSweepRuns(t *testing.T) {
	s := scenario(24, 20, 4)
	res := run(t, s, Planned(&baseline.Sweep{}), Options{Horizon: 60_000}, 1)
	if res.TotalVisits() == 0 {
		t.Fatal("sweep fleet never visited anything")
	}
	// Every target is eventually visited (each group is patrolled).
	if !everyTargetVisited(res.Recorder) {
		t.Fatal("some target never visited under Sweep")
	}
}

func TestWTCTPVIPFrequency(t *testing.T) {
	// A weight-3 VIP must be visited 3× as often as an NTP per
	// traversal: its mean interval is about a third of an NTP's on the
	// same walk... more precisely, over a full walk period the VIP is
	// seen 3 times. Check visit-count ratio.
	s := scenario(25, 15, 2)
	s.AssignVIPs(xrand.New(26), 1, 3)
	vip := s.VIPs()[0]
	res := run(t, s, Planned(&core.WTCTP{Policy: core.BalancingLength}), Options{Horizon: 100_000}, 1)
	vipVisits := len(res.Recorder.VisitTimes(vip))
	var ntp int
	for id := range s.Targets {
		if id != vip {
			ntp = id
			break
		}
	}
	ntpVisits := len(res.Recorder.VisitTimes(ntp))
	ratio := float64(vipVisits) / float64(ntpVisits)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("VIP/NTP visit ratio = %v (visits %d vs %d), want ≈3",
			ratio, vipVisits, ntpVisits)
	}
}

func TestRWTCTPNeverDies(t *testing.T) {
	s := mustGenerate(field.Config{
		NumTargets:   15,
		NumMules:     2,
		Placement:    field.Uniform,
		WithRecharge: true,
	}, xrand.New(27))
	model := energy.Default()
	model.Capacity = 80_000 // a couple of rounds per charge
	rw := &core.RWTCTP{}
	rw.Model = model
	opts := Options{Horizon: 150_000, UseBattery: true, Energy: model}
	res := run(t, s, Planned(rw), opts, 1)
	if res.DeadMules() != 0 {
		t.Fatalf("%d mules died despite RW-TCTP", res.DeadMules())
	}
	for i, m := range res.Mules {
		if m.Recharges == 0 {
			t.Fatalf("mule %d never recharged over a long horizon", i)
		}
	}
	if !everyTargetVisited(res.Recorder) {
		t.Fatal("some target never visited under RW-TCTP")
	}
}

func TestWithoutRechargeMulesDie(t *testing.T) {
	// The contrast experiment: same battery, plain W-TCTP (no
	// recharge detours) — the fleet must die before the horizon.
	s := mustGenerate(field.Config{
		NumTargets:   15,
		NumMules:     2,
		Placement:    field.Uniform,
		WithRecharge: true,
	}, xrand.New(27))
	model := energy.Default()
	model.Capacity = 80_000
	opts := Options{Horizon: 150_000, UseBattery: true, Energy: model}
	res := run(t, s, Planned(&core.WTCTP{}), opts, 1)
	if res.DeadMules() != len(res.Mules) {
		t.Fatalf("only %d/%d mules died without recharge", res.DeadMules(), len(res.Mules))
	}
}

func TestSynchronizedStart(t *testing.T) {
	s := scenario(28, 10, 3)
	res := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 40_000}, 1)
	if res.PatrolStart <= 0 {
		t.Fatalf("PatrolStart = %v, want positive", res.PatrolStart)
	}
	// No visits strictly before the synchronized start (mules hold at
	// their start points; a start point may coincide with a target,
	// whose visit then happens exactly at PatrolStart).
	for target := 0; target < s.NumTargets(); target++ {
		for _, ts := range res.Recorder.VisitTimes(target) {
			if ts < res.PatrolStart-1e-9 {
				t.Fatalf("target %d visited at %v before synchronized start %v",
					target, ts, res.PatrolStart)
			}
		}
	}
}

func TestNoSynchronizedStart(t *testing.T) {
	s := scenario(29, 10, 3)
	opts := Options{Horizon: 40_000, NoSynchronizedStart: true}
	res := run(t, s, Planned(&core.BTCTP{}), opts, 1)
	if res.PatrolStart != 0 {
		t.Fatalf("PatrolStart = %v with sync off", res.PatrolStart)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := scenario(30, 12, 3)
	a := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 30_000}, 7)
	b := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 30_000}, 7)
	for target := 0; target < s.NumTargets(); target++ {
		ta, tb := a.Recorder.VisitTimes(target), b.Recorder.VisitTimes(target)
		if len(ta) != len(tb) {
			t.Fatalf("visit counts differ for target %d", target)
		}
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("visit %d of target %d differs: %v vs %v", k, target, ta[k], tb[k])
			}
		}
	}
}

func TestResultAccessors(t *testing.T) {
	s := scenario(31, 10, 2)
	res := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 20_000}, 1)
	if res.TotalVisits() <= 0 {
		t.Fatal("no visits")
	}
	if res.TotalEnergy() <= 0 {
		t.Fatal("no energy consumed")
	}
	if res.EnergyPerVisit() <= 0 {
		t.Fatal("no energy per visit")
	}
	if res.DeadMules() != 0 {
		t.Fatal("unconstrained mules died")
	}
	empty := &Result{}
	if empty.EnergyPerVisit() != 0 {
		t.Fatal("empty result energy per visit")
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	s := scenario(32, 10, 2)
	s.SinkID = 99
	if _, err := Run(s, Planned(&core.BTCTP{}), Options{}, nil); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := scenario(33, 10, 2)
	opts := Options{Horizon: 1e9, MaxEvents: 500}
	res := run(t, s, Planned(&core.BTCTP{}), opts, 1)
	// The guard must stop the run long before the absurd horizon. A
	// leg is one event and every visit ends one, so the run records at
	// most MaxEvents visits — and, since only each mule's launch costs
	// an event of its own, nearly that many.
	if v := uint64(res.TotalVisits()); v > opts.MaxEvents || v < opts.MaxEvents*9/10 {
		t.Fatalf("guard stopped the run after %d visits, want at most %d and at least %d",
			v, opts.MaxEvents, opts.MaxEvents*9/10)
	}
}

func TestObserversAreInvoked(t *testing.T) {
	s := mustGenerate(field.Config{
		NumTargets: 10, NumMules: 2, Placement: field.Uniform, WithRecharge: true,
	}, xrand.New(40))
	model := energy.Default()
	model.Capacity = 60_000
	rw := &core.RWTCTP{}
	rw.Model = model

	visits, deaths, recharges := 0, 0, 0
	opts := Options{
		Horizon: 120_000, UseBattery: true, Energy: model,
		Observers: []Observer{ObserverFuncs{
			Visit:    func(_, _ int, _ float64) { visits++ },
			Death:    func(_ int, _ float64, _ geom.Point) { deaths++ },
			Recharge: func(_ int, _ float64) { recharges++ },
		}},
	}
	res := run(t, s, Planned(rw), opts, 1)
	if visits != res.TotalVisits() {
		t.Fatalf("hook saw %d visits, recorder %d", visits, res.TotalVisits())
	}
	if recharges == 0 {
		t.Fatal("recharge hook never fired")
	}
	if deaths != 0 {
		t.Fatal("death hook fired for a healthy RW-TCTP fleet")
	}
}

func TestMultiObserverDispatch(t *testing.T) {
	// Several peer observers all see every event, in registration
	// order, after the built-in recorder.
	s := scenario(44, 8, 2)
	var order []string
	mk := func(name string) Observer {
		return ObserverFuncs{Visit: func(_, _ int, _ float64) {
			order = append(order, name)
		}}
	}
	res := run(t, s, Planned(&core.BTCTP{}), Options{
		Horizon:   10_000,
		Observers: []Observer{mk("a"), mk("b")},
	}, 1)
	if len(order) != 2*res.TotalVisits() {
		t.Fatalf("observers saw %d events for %d visits", len(order), res.TotalVisits())
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("dispatch order broken at %d: %v", i, order[i:i+2])
		}
	}
}

func TestHeterogeneousFleetSpeeds(t *testing.T) {
	// A two-speed fleet: each mule travels at its own speed, and the
	// synchronized start is bounded by the slowest mule.
	s := scenario(45, 10, 2)
	res := run(t, s, Planned(&core.BTCTP{}), Options{
		Speed:   2,
		Fleet:   []FleetMember{{Speed: 1}, {Speed: 4}},
		Horizon: 40_000,
	}, 1)
	if res.Mules[1].Distance <= res.Mules[0].Distance {
		t.Fatalf("fast mule travelled %.0f m, slow mule %.0f m",
			res.Mules[1].Distance, res.Mules[0].Distance)
	}
	// PatrolStart uses the slowest effective speed (1 m/s), so it is
	// twice the homogeneous 2 m/s start.
	homog := run(t, s, Planned(&core.BTCTP{}), Options{Speed: 2, Horizon: 40_000}, 1)
	if res.PatrolStart <= homog.PatrolStart {
		t.Fatalf("mixed-fleet patrol start %.1f not delayed past homogeneous %.1f",
			res.PatrolStart, homog.PatrolStart)
	}
}

func TestPerMuleBattery(t *testing.T) {
	// One mule with a tiny battery dies; its unconstrained partner
	// patrols forever.
	s := scenario(46, 10, 2)
	res := run(t, s, Planned(&core.BTCTP{}), Options{
		Fleet:   []FleetMember{{Battery: 3_000}, {}},
		Horizon: 60_000,
	}, 1)
	if !res.Mules[0].Dead {
		t.Fatal("tiny-battery mule survived")
	}
	if res.Mules[1].Dead {
		t.Fatal("unconstrained mule died")
	}
}

func TestFleetSizeMismatchRejected(t *testing.T) {
	s := scenario(47, 8, 2)
	_, err := Run(s, Planned(&core.BTCTP{}), Options{
		Fleet: []FleetMember{{Speed: 1}},
	}, nil)
	if err == nil {
		t.Fatal("fleet/mule count mismatch accepted")
	}
}

func TestDeathHookFailureInjection(t *testing.T) {
	// Failure injection: a battery too small for even one circuit
	// kills the whole fleet; the hook must observe every death and
	// the intervals must stop accumulating afterwards.
	s := scenario(41, 12, 3)
	model := energy.Default()
	model.Capacity = 5_000 // ~600 m of travel — dies mid-first-circuit
	var deathTimes []float64
	opts := Options{
		Horizon: 50_000, UseBattery: true, Energy: model,
		Observers: []Observer{ObserverFuncs{
			Death: func(_ int, tm float64, _ geom.Point) { deathTimes = append(deathTimes, tm) },
		}},
	}
	res := run(t, s, Planned(&core.BTCTP{}), opts, 1)
	if res.DeadMules() != 3 {
		t.Fatalf("DeadMules = %d, want 3", res.DeadMules())
	}
	if len(deathTimes) != 3 {
		t.Fatalf("death hook fired %d times", len(deathTimes))
	}
	// No visit may postdate the last death.
	lastDeath := deathTimes[0]
	for _, d := range deathTimes {
		if d > lastDeath {
			lastDeath = d
		}
	}
	for target := 0; target < s.NumTargets(); target++ {
		for _, ts := range res.Recorder.VisitTimes(target) {
			if ts > lastDeath {
				t.Fatalf("visit at %v after the fleet died at %v", ts, lastDeath)
			}
		}
	}
}

func TestPartialFleetDeathDegradesGracefully(t *testing.T) {
	// One mule with a smaller battery dies; the survivors keep
	// patrolling and every target keeps being visited (at a longer
	// interval). The planner is unaware — this is pure failure
	// injection at the simulation layer.
	s := scenario(42, 10, 2)
	plan, err := (&core.BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan
	// Run once healthy to know the steady interval.
	healthy := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 80_000}, 1)
	healthyIv := healthy.Recorder.AvgDCDTAfter(healthy.PatrolStart + 1)

	// Now re-run with batteries: big enough that death happens late.
	model := energy.Default()
	model.Capacity = 150_000
	res := run(t, s, Planned(&core.BTCTP{}), Options{
		Horizon: 80_000, UseBattery: true, Energy: model,
	}, 1)
	if res.DeadMules() == 0 {
		t.Skip("battery outlived horizon; scenario too small for this seed")
	}
	// After deaths the remaining visits continue only if some mule
	// survived; with identical batteries both die ≈ together, so just
	// assert the recorded max interval exceeds the healthy steady one.
	if res.Recorder.MaxInterval() <= healthyIv {
		t.Fatalf("failure did not degrade intervals: max %.1f vs healthy %.1f",
			res.Recorder.MaxInterval(), healthyIv)
	}
}

// countingObserver tallies every event it sees, by kind.
type countingObserver struct{ visits, deaths, recharges int }

func (c *countingObserver) OnVisit(int, int, float64)        { c.visits++ }
func (c *countingObserver) OnDeath(int, float64, geom.Point) { c.deaths++ }
func (c *countingObserver) OnRecharge(int, float64)          { c.recharges++ }

// TestTracerIntegration: an attached observer sees exactly the
// recorder's visits, and nothing but visits on a battery-free run.
func TestTracerIntegration(t *testing.T) {
	s := scenario(43, 8, 2)
	obs := &countingObserver{}
	opts := Options{
		Horizon:   20_000,
		Observers: []Observer{obs},
	}
	res := run(t, s, Planned(&core.BTCTP{}), opts, 1)
	if obs.visits != res.TotalVisits() {
		t.Fatalf("observer saw %d visits, recorder %d", obs.visits, res.TotalVisits())
	}
	if obs.deaths != 0 || obs.recharges != 0 {
		t.Fatalf("unexpected non-visit events: %d deaths, %d recharges", obs.deaths, obs.recharges)
	}
}

// TestWTCTPNTPSteadyStateSDZero: even on a weighted path with VIP
// revisits, plain targets (NTPs) are visited once per traversal by
// every mule, so their steady-state intervals are constant — the
// phase-equalizing holds must deliver SD ≈ 0 for NTPs with any fleet
// size.
func TestWTCTPNTPSteadyStateSDZero(t *testing.T) {
	for _, mules := range []int{1, 2, 3} {
		s := scenario(60+uint64(mules), 14, mules)
		s.AssignVIPs(xrand.New(61), 2, 3)
		vips := map[int]bool{}
		for _, v := range s.VIPs() {
			vips[v] = true
		}
		res := run(t, s, Planned(&core.WTCTP{Policy: core.ShortestLength}),
			Options{Horizon: 150_000}, 1)
		warm := res.PatrolStart + 1
		for target := 0; target < s.NumTargets(); target++ {
			if vips[target] {
				continue
			}
			if sd := res.Recorder.SDAfter(target, warm); sd > 1e-6 {
				t.Fatalf("mules=%d: NTP %d steady SD = %v", mules, target, sd)
			}
		}
	}
}

// TestUnsyncedStartBreaksBalance: without the synchronized start the
// mules' phases depend on their approach distances, so B-TCTP's
// perfect balance degrades — the quantitative argument for the sync
// step (ablation A3's third arm).
func TestUnsyncedStartBreaksBalance(t *testing.T) {
	s := scenario(62, 15, 4)
	synced := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 80_000}, 1)
	unsynced := run(t, s, Planned(&core.BTCTP{}),
		Options{Horizon: 80_000, NoSynchronizedStart: true}, 1)
	sSD := synced.Recorder.AvgSDAfter(synced.PatrolStart + 1)
	uSD := unsynced.Recorder.AvgSDAfter(1)
	if sSD > 1e-6 {
		t.Fatalf("synced SD = %v", sSD)
	}
	if uSD <= 1e-6 {
		t.Skip("mule starts happened to be phase-aligned for this seed")
	}
	if uSD <= sSD {
		t.Fatalf("unsynced SD %v not above synced %v", uSD, sSD)
	}
}

// TestGroupStats: plan-based runs report per-group identity and
// aggregate stats; the partitioned planner yields one entry per
// region, the single-circuit planners exactly one.
func TestGroupStats(t *testing.T) {
	s := scenario(31, 16, 4)
	single := run(t, s, Planned(&core.BTCTP{}), Options{Horizon: 20_000}, 1)
	if len(single.Groups) != 1 {
		t.Fatalf("B-TCTP run has %d group stats, want 1", len(single.Groups))
	}
	g := single.Groups[0]
	if len(g.Targets) != s.NumTargets() || len(g.Mules) != s.NumMules() {
		t.Fatalf("degenerate group covers %d targets / %d mules", len(g.Targets), len(g.Mules))
	}
	if g.Visits != single.TotalVisits() || g.WalkLength <= 0 {
		t.Fatalf("group aggregate %+v does not match run totals", g)
	}
	// The group-restricted DCDT over all targets equals the global one.
	warm := single.PatrolStart + 1
	if got, want := single.GroupDCDTAfter(0, warm), single.Recorder.AvgDCDTAfter(warm); got != want {
		t.Fatalf("GroupDCDTAfter = %v, global AvgDCDTAfter = %v", got, want)
	}

	part := run(t, s, Planned(&core.CBTCTP{
		Config: core.PartitionConfig{Method: core.KMeansMethod, K: 3},
	}), Options{Horizon: 20_000}, 1)
	if len(part.Groups) != 3 {
		t.Fatalf("C-BTCTP run has %d group stats, want 3", len(part.Groups))
	}
	visits, targets := 0, 0
	for gi, g := range part.Groups {
		visits += g.Visits
		targets += len(g.Targets)
		if g.WalkLength <= 0 {
			t.Fatalf("group %d walk length %v", gi, g.WalkLength)
		}
		if part.GroupDCDTAfter(gi, part.PatrolStart+1) <= 0 {
			t.Fatalf("group %d DCDT not positive", gi)
		}
	}
	if visits != part.TotalVisits() || targets != s.NumTargets() {
		t.Fatalf("group aggregates (%d visits, %d targets) do not partition the run", visits, targets)
	}

	// Online algorithms carry no plan and no group stats.
	online := run(t, s, Online(&baseline.Random{}), Options{Horizon: 5_000}, 1)
	if online.Groups != nil {
		t.Fatalf("online run has group stats: %+v", online.Groups)
	}
}

// TestPartitionedAdapter: patrol.Partitioned derives the C-variant
// from a planned algorithm and refuses online algorithms and
// unpartitionable planners.
func TestPartitionedAdapter(t *testing.T) {
	cfg := core.PartitionConfig{Method: core.KMeansMethod, K: 2}
	alg, err := Partitioned(Planned(&core.BTCTP{}), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := scenario(32, 10, 2)
	res := run(t, s, alg, Options{Horizon: 10_000}, 1)
	if len(res.Groups) != 2 {
		t.Fatalf("partitioned adapter produced %d groups", len(res.Groups))
	}
	if _, err := Partitioned(Online(&baseline.Random{}), cfg, nil); err == nil {
		t.Fatal("online algorithm partitioned")
	}
	if _, err := Partitioned(Planned(&baseline.CHB{}), cfg, nil); err == nil {
		t.Fatal("CHB has no partitioned variant but was accepted")
	}
}

// fixedPlan replays one precomputed plan, so an allocation count
// covers the run and not the planner, whose count can vary by one from
// call to call with map iteration order.
// TestMergeAllocatesNothing: a shared-circuit run whose mules all run
// ahead makes every target's log of one run per mule, and the recorder
// merges them all in one buffer, sized once for the longest, so the run
// allocates as much with four times the targets. A merge that
// allocates per log fails it.
func TestMergeAllocatesNothing(t *testing.T) {
	for _, planner := range []core.Planner{&core.BTCTP{}, &core.WTCTP{}, &baseline.CHB{}} {
		allocs := func(targets int) float64 {
			s := scenario(41, targets, 4)
			plan, err := planner.Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			alg := Planned(fixedPlan{plan})
			least := math.Inf(1)
			for i := 0; i < 3; i++ {
				least = math.Min(least, testing.AllocsPerRun(5, func() {
					if res, err := Run(s, alg, Options{Horizon: 20_000}, nil); err != nil || res.Recorder.Merged() < 4 {
						t.Fatalf("%s: error %v, or no log merged from one run per mule", planner.Name(), err)
					}
				}))
			}
			return least
		}
		if few, many := allocs(10), allocs(40); few != many {
			t.Fatalf("%s: %v allocations with 10 targets, %v with 40", planner.Name(), few, many)
		}
	}
}

type fixedPlan struct{ plan *core.FleetPlan }

func (f fixedPlan) Name() string                                  { return "fixed" }
func (f fixedPlan) Plan(*field.Scenario) (*core.FleetPlan, error) { return f.plan, nil }

// TestRunAllocationsIndependentOfHorizon pins the allocation-free
// simulate path: a planned run, plus the steady-state metrics a sweep
// extracts from it, performs the same number of allocations at
// horizon H and at 4H. Whatever a run allocates is set-up (routers,
// mules, the recorder's one flat block, sized from the routes); no
// leg, visit or interval statistic allocates, and no visit log
// regrows, however many of them the horizon holds. The statistics read
// every group's and one target's too, and allocate nothing: the run
// allocates as much without them. An aggregate that wrote a parked
// span out would grow its log, which is sized for the span's two ends. The Sweep fleet
// with nearly one mule per target has routes whose period the dwell
// sets rather than the walk.
func TestRunAllocationsIndependentOfHorizon(t *testing.T) {
	for _, tc := range []struct {
		name    string
		s       *field.Scenario
		planner core.Planner
		h       float64
	}{
		{"btctp", scenario(31, 20, 4), &core.BTCTP{}, 20_000},
		{"wtctp", scenario(32, 20, 4), &core.WTCTP{}, 20_000},
		{"chb", scenario(33, 20, 4), &baseline.CHB{}, 20_000},
		{"sweep", scenario(34, 20, 4), &baseline.Sweep{}, 20_000},
		{"sweep-crowded", scenario(35, 8, 7), &baseline.Sweep{}, 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := tc.planner.Plan(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			alg := Planned(fixedPlan{plan})
			// A garbage collection can make the runtime allocate a few
			// objects of its own inside a measurement; that noise only
			// ever adds, so the least of three measurements is the
			// run's own count, and a per-leg allocation shows in all.
			allocs := func(horizon float64, read bool) (float64, int) {
				visits, least := 0, math.Inf(1)
				for i := 0; i < 3; i++ {
					least = math.Min(least, testing.AllocsPerRun(5, func() {
						res, err := Run(tc.s, alg, Options{Horizon: horizon}, nil)
						if err != nil {
							t.Fatal(err)
						}
						visits = res.TotalVisits()
						rec, warm := res.Recorder, res.PatrolStart
						if !read {
							return
						}
						if rec.AvgDCDTAfter(warm) <= 0 || rec.AvgSDAfter(warm) < 0 || rec.MaxInterval() <= 0 ||
							rec.SDAfter(res.Groups[0].Targets[0], warm) < 0 {
							t.Fatal("implausible metrics")
						}
						for g := range res.Groups {
							if res.GroupDCDTAfter(g, warm) <= 0 || res.GroupSDAfter(g, warm) < 0 {
								t.Fatalf("implausible metrics of group %d", g)
							}
						}
					}))
				}
				return least, visits
			}
			h := tc.h
			a1, v1 := allocs(h, true)
			a4, v4 := allocs(4*h, true)
			if v4 < 3*v1 {
				t.Fatalf("visits %d at %v s and %d at %v s: the longer run must do more work", v1, h, v4, 4*h)
			}
			if a1 != a4 {
				t.Fatalf("%v allocations at horizon %v s (%d visits), %v at %v s (%d visits): the simulate path allocates per leg or visit",
					a1, h, v1, a4, 4*h, v4)
			}
			if a0, _ := allocs(h, false); a0 != a1 {
				t.Fatalf("%v allocations with the interval statistics read, %v without: a statistic allocates", a1, a0)
			}
		})
	}
}

// mustGenerate is field.Generate for a config it can place.
func mustGenerate(cfg field.Config, src *xrand.Source) *field.Scenario {
	s, err := field.Generate(cfg, src)
	if err != nil {
		panic(err)
	}
	return s
}
