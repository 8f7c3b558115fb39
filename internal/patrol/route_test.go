package patrol

import (
	"math/rand"
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
	s := field.Generate(field.Config{
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

// TestVisitCapsBoundVisitCounts is the property the recorder's sizing
// rests on: across random plans, horizons, speeds and dwells, every
// target's capacity is at least the visits it actually receives, so
// no log regrows.
func TestVisitCapsBoundVisitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	multiPhase := 0
	for i := 0; i < 100; i++ {
		s, alg, opts := randomPlanCase(rng)
		res, err := Run(s, alg, opts, nil)
		if err != nil {
			continue // e.g. a fleet the planner refuses
		}
		caps := visitCaps(s.NumTargets(), res.Plan, opts.withDefaults())
		if caps == nil {
			t.Fatalf("case %d (%s): no capacities for a plan with positive periods", i, alg.Name())
		}
		for id := range caps {
			if got := len(res.Recorder.VisitTimes(id)); got > caps[id] {
				t.Fatalf("case %d (%s, horizon %v, dwell %v): target %d visited %d times, capacity %d",
					i, alg.Name(), opts.Horizon, opts.Energy.Dwell, id, got, caps[id])
			}
		}
		if len(res.Plan.Routes[0].Cycle) > 1 {
			multiPhase++
		}
	}
	if multiPhase == 0 {
		t.Fatal("no multi-phase plan drawn")
	}
}

// TestVisitCapsFallBack covers the plans that get no capacities, whose
// logs grow instead: online algorithms, a route with a zero period
// (one stop, no dwell) and capacities beyond what MaxEvents allows.
func TestVisitCapsFallBack(t *testing.T) {
	opts := Options{Horizon: 1000}.withDefaults()
	if caps := visitCaps(3, nil, opts); caps != nil {
		t.Fatalf("online run got capacities %v", caps)
	}
	stop := mule.Waypoint{Pos: geom.Pt(10, 10), TargetID: 1}
	plan := &core.FleetPlan{Routes: []core.MuleRoute{{Cycle: []core.Phase{{Stops: []mule.Waypoint{stop}, Repeat: 1}}}}}
	opts.Energy.Dwell = 0
	if caps := visitCaps(3, plan, opts); caps != nil {
		t.Fatalf("zero-period route got capacities %v", caps)
	}
	opts.Energy.Dwell = 1
	caps := visitCaps(3, plan, opts)
	if caps == nil || caps[1] != 1002 || caps[0] != 0 {
		t.Fatalf("one-stop route with a 1 s dwell: capacities %v, want 1002 for target 1", caps)
	}
	opts.MaxEvents = 1001
	if caps := visitCaps(3, plan, opts); caps != nil {
		t.Fatalf("capacities %v beyond MaxEvents", caps)
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
