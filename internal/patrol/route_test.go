package patrol

import (
	"math/rand"
	"slices"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/sim"
	"tctp/internal/xrand"
)

// randomPlanCase draws a scenario, a planner, a horizon and a dwell.
// RW-TCTP brings multi-phase routes (a repeated WPP phase, then a WRP
// phase through the recharge station) and a battery.
func randomPlanCase(rng *rand.Rand) (*field.Scenario, Algorithm, Options) {
	mules := 1 + rng.Intn(6)
	targets := mules + rng.Intn(25)
	placements := []field.Placement{field.Uniform, field.Clusters, field.Grid}
	s := mustGenerate(field.Config{
		NumTargets:   targets,
		NumMules:     mules,
		Placement:    placements[rng.Intn(len(placements))],
		WithRecharge: true,
	}, xrand.New(uint64(rng.Int63())))
	model := energy.Default()
	model.Dwell = []float64{0, 0.5, 1, 20}[rng.Intn(4)]
	opts := Options{
		Horizon: float64(1000 + rng.Intn(40_000)),
		Energy:  model,
		Speed:   []float64{0.5, 2, 7}[rng.Intn(3)],
	}
	dwell := model.Dwell
	if dwell == 0 {
		dwell = core.NoDwell
	}
	var alg Algorithm
	switch rng.Intn(6) {
	case 0:
		alg = Planned(&core.BTCTP{Dwell: dwell})
	case 1:
		alg = Planned(&core.WTCTP{Dwell: dwell})
	case 2:
		alg = Planned(&baseline.CHB{})
	case 3:
		// A Sweep mule alone with its target has a one-stop cycle: give
		// it a dwell, or its zero period spins it to MaxEvents at one
		// instant.
		if opts.Energy.Dwell == 0 {
			opts.Energy.Dwell = 0.5
		}
		alg = Planned(&baseline.Sweep{})
	case 4:
		opts.NoSynchronizedStart = true
		alg = Planned(&core.BTCTP{Dwell: dwell})
	default:
		model.Capacity = float64(20_000 + rng.Intn(80_000))
		opts.Energy, opts.UseBattery = model, true
		rw := &core.RWTCTP{}
		rw.Model = model
		alg = Planned(rw)
	}
	return s, alg, opts
}

// striderTarget returns the target at which mule i strides when it
// runs ahead on route r, or -1: a cycle of one phase of one target stop
// with no recharge and no hold, under a positive dwell and a model that
// spends nothing to move 0 m.
func striderTarget(i int, r core.MuleRoute, rs []mule.Route, opts Options) int {
	if len(r.Cycle) != 1 || len(r.Cycle[0].Stops) != 1 || !runsAhead(i, rs, opts) {
		return -1
	}
	wp := r.Cycle[0].Stops[0]
	if wp.TargetID == mule.NoTarget || wp.Recharge || wp.NotBefore > 0 ||
		!(opts.Energy.Dwell > 0) || opts.Energy.MoveEnergy(0) != 0 {
		return -1
	}
	return wp.TargetID
}

// TestVisitCapsBoundVisitCounts is the property the recorder's sizing
// rests on, across random plans, horizons, speeds and dwells. Every
// target that no striding mule visits gets a capacity of at least the
// visits it actually receives, so no log regrows. A target at which
// mules stride (every Sweep mule alone with one target) gets exactly
// the entries its log stores: its approach visits plus the two ends of
// one span per striding mule, each of which entered at the stop and
// visited it twice or more.
func TestVisitCapsBoundVisitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	multiPhase, strode := 0, 0
	for i := 0; i < 200; i++ {
		s, alg, opts := randomPlanCase(rng)
		if i%2 == 1 {
			// Few targets per mule: Sweep parks mules alone at one.
			s = mustGenerate(field.Config{NumTargets: s.NumMules() + rng.Intn(3), NumMules: s.NumMules()},
				xrand.New(uint64(rng.Int63())))
		}
		res, err := Run(s, alg, opts, nil)
		if err != nil {
			continue // e.g. a fleet the planner refuses
		}
		opts = opts.withDefaults()
		rs := newPlanRouters(res.Plan.Routes, res.PatrolStart)
		caps := visitCaps(s.NumTargets(), rs, opts)
		if caps == nil {
			t.Fatalf("case %d (%s): no capacities for a plan with positive periods", i, alg.Name())
		}
		approach := make([]int, s.NumTargets())
		striders := make([]int, s.NumTargets())
		for j, r := range res.Plan.Routes {
			for _, wp := range r.Approach {
				if wp.TargetID != mule.NoTarget {
					approach[wp.TargetID]++
				}
			}
			if id := striderTarget(j, r, rs, opts); id >= 0 {
				striders[id]++
				if res.Mules[j].Visits < 2 {
					t.Fatalf("case %d (%s): mule %d strode to %d visits", i, alg.Name(), j, res.Mules[j].Visits)
				}
			}
		}
		for id := range caps {
			if striders[id] > 0 {
				strode++
				if want := approach[id] + 2*striders[id]; caps[id] != want {
					t.Fatalf("case %d (%s): target %d with %d striding mules and %d approach visits: capacity %d, want %d",
						i, alg.Name(), id, striders[id], approach[id], caps[id], want)
				}
				continue
			}
			if got := len(res.Recorder.VisitTimes(id)); got > caps[id] {
				t.Fatalf("case %d (%s, horizon %v, dwell %v): target %d visited %d times, capacity %d",
					i, alg.Name(), opts.Horizon, opts.Energy.Dwell, id, got, caps[id])
			}
		}
		if len(res.Plan.Routes[0].Cycle) > 1 {
			multiPhase++
		}
	}
	if multiPhase == 0 || strode == 0 {
		t.Fatalf("%d multi-phase plans, %d targets with striding mules: the cases miss one", multiPhase, strode)
	}
}

// TestVisitCapsFallBack covers the plans that get no capacities, whose
// logs grow instead: online algorithms, a route with a zero period
// (one stop, no dwell) and capacities beyond what MaxEvents allows; and
// the one-stop route with a dwell, which gets a slot per visit on the
// engine and the two ends of its span when it runs ahead and strides,
// plus one for a first visit off its approach's end.
func TestVisitCapsFallBack(t *testing.T) {
	opts := Options{Horizon: 1000}.withDefaults()
	if caps := visitCaps(3, nil, opts); caps != nil {
		t.Fatalf("online run got capacities %v", caps)
	}
	stop := mule.Waypoint{Pos: geom.Pt(10, 10), TargetID: 1}
	route := core.MuleRoute{Cycle: []core.Phase{{Stops: []mule.Waypoint{stop}, Repeat: 1}}}
	caps := func(opts Options) []int {
		return visitCaps(3, newPlanRouters([]core.MuleRoute{route}, 0), opts)
	}
	opts.Energy.Dwell = 0
	if c := caps(opts); c != nil {
		t.Fatalf("zero-period route got capacities %v", c)
	}
	opts.Energy.Dwell = 1
	for _, tc := range []struct {
		name      string
		approach  []mule.Waypoint
		observers []Observer
		want      []int
	}{
		{"on the engine", nil, []Observer{ObserverFuncs{}}, []int{0, 1002, 0}},
		{"striding, off the approach", nil, nil, []int{0, 3, 0}},
		{"striding, entering at the stop", []mule.Waypoint{{Pos: stop.Pos, TargetID: mule.NoTarget}}, nil, []int{0, 2, 0}},
		{"striding after an approach visit", []mule.Waypoint{{Pos: stop.Pos, TargetID: 2}}, nil, []int{0, 2, 1}},
	} {
		route.Approach, opts.Observers = tc.approach, tc.observers
		if c := caps(opts); !slices.Equal(c, tc.want) {
			t.Fatalf("one-stop route with a 1 s dwell, %s: capacities %v, want %v", tc.name, c, tc.want)
		}
	}
	opts.MaxEvents = 1001
	if c := caps(opts); c != nil {
		t.Fatalf("capacities %v beyond MaxEvents", c)
	}
}

// legChecker records every leg a plan's mule.Route hands out whose length
// differs from the mule's own measurement.
type legChecker struct {
	r    *mule.Route
	legs int
	bad  []string
}

func (c *legChecker) Next(m *mule.Mule) (mule.Waypoint, float64, bool) {
	wp, dist, ok := c.r.Next(m)
	c.legs++
	if want := m.Pos().Dist(wp.Pos); dist != want {
		c.bad = append(c.bad, wp.Pos.String())
	}
	return wp, dist, ok
}

// TestPlanRouterLegLengthsMatchMeasurement drives random plans'
// routers through whole runs and requires every leg length read from
// the table to equal m.Pos().Dist(wp.Pos) bit for bit, including the
// legs into a phase's first stop from its own end and from the
// previous phase.
func TestPlanRouterLegLengthsMatchMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 80; i++ {
		s, alg, opts := randomPlanCase(rng)
		opts = opts.withDefaults()
		res, err := Run(s, alg, opts, nil)
		if err != nil {
			continue
		}
		eng := sim.New()
		checkers := make([]*legChecker, len(res.Plan.Routes))
		for j, r := range newPlanRouters(res.Plan.Routes, res.PatrolStart) {
			r := r
			checkers[j] = &legChecker{r: &r}
			mule.New(eng, mule.Config{
				ID: j, Start: s.MuleStarts[j], Speed: opts.muleSpeed(j), Energy: opts.Energy, Router: checkers[j],
			}).Launch()
		}
		eng.RunUntil(opts.Horizon)
		for j, c := range checkers {
			if len(c.bad) > 0 {
				t.Fatalf("case %d (%s) mule %d: %d of %d legs differ from the measured length, first into %s",
					i, alg.Name(), j, len(c.bad), c.legs, c.bad[0])
			}
		}
	}
}
