package mule

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/metrics"
	"tctp/internal/sim"
)

// cycleRoute is a plan-like route: an approach walked once, holding
// at its last stop until hold, then cycle phases looped forever, phase
// p run repeats[p] times in a row.
type cycleRoute struct {
	approach []Waypoint
	hold     float64
	phases   [][]Waypoint
	repeats  []int
}

// router builds a fresh Route over the route's leg table.
func (cr cycleRoute) router() *Route {
	var legs []Leg
	var phases []Phase
	for p, ph := range cr.phases {
		prev := cr.phases[(p+len(cr.phases)-1)%len(cr.phases)]
		legs, phases = AppendPhase(legs, phases, ph, cr.repeats[p], prev[len(prev)-1].Pos)
	}
	r := NewRoute(cr.approach, cr.hold, legs, phases)
	return &r
}

// entry is the point the table's first leg starts from: the last
// phase's last stop.
func (cr cycleRoute) entry() geom.Point {
	last := cr.phases[len(cr.phases)-1]
	return last[len(last)-1].Pos
}

// cycleCase is one mule alone on a cycleRoute, with no battery.
type cycleCase struct {
	route  cycleRoute
	start  geom.Point
	speed  float64
	model  energy.Model
	parked bool
}

// randomCycleCase draws a parked one-target route (a zero-length leg
// per lap, a dwell of 0.3, 0.7, 1, 2.5, 3 or 10 s, and now and then a
// hold at the stop itself) or a multi-stop cycle of up to three
// phases, some repeated,
// with non-target stops, recharge stops and holds; its approach ends on
// the table's entry point or off it. A zero dwell comes with a cycle
// of positive length, so no case spins at one instant.
func randomCycleCase(rng *rand.Rand) cycleCase {
	c := cycleCase{
		start: gridPoint(rng),
		speed: []float64{1, 2, 5}[rng.Intn(3)],
		model: energy.Model{
			MoveCost:    []float64{0, 0.5, 1}[rng.Intn(3)],
			CollectCost: []float64{0, 1, 3}[rng.Intn(3)],
			Dwell:       []float64{0, 1, 2.5, 10}[rng.Intn(4)],
		},
	}
	stop := func() Waypoint {
		wp := Waypoint{Pos: gridPoint(rng), TargetID: rng.Intn(6)}
		if rng.Intn(5) == 0 {
			wp.TargetID = NoTarget
		}
		if rng.Intn(12) == 0 {
			wp.Recharge = true
		}
		if rng.Intn(12) == 0 {
			wp.NotBefore = float64(rng.Intn(300))
		}
		return wp
	}
	if c.parked = c.model.Dwell > 0 && rng.Intn(3) == 0; c.parked {
		c.model.Dwell = []float64{0.3, 0.7, 3, c.model.Dwell}[rng.Intn(4)]
		stop := Waypoint{Pos: gridPoint(rng), TargetID: rng.Intn(6)}
		if rng.Intn(6) == 0 {
			// A hold at the stop itself, which may outlast the first
			// departure from it.
			stop.NotBefore = float64(rng.Intn(300))
		}
		c.route.phases = [][]Waypoint{{stop}}
		c.route.repeats = []int{1 + rng.Intn(3)}
	} else {
		for p := 1 + rng.Intn(3); p > 0; p-- {
			ph := make([]Waypoint, 1+rng.Intn(4))
			for i := range ph {
				ph[i] = stop()
			}
			c.route.phases = append(c.route.phases, ph)
			c.route.repeats = append(c.route.repeats, 1+rng.Intn(3))
		}
		// Two stops at distinct positions give the cycle a positive
		// length.
		if len(c.route.phases) == 1 && len(c.route.phases[0]) == 1 {
			c.route.phases[0] = append(c.route.phases[0], stop())
		}
		first := &c.route.phases[0][0]
		last := &c.route.phases[len(c.route.phases)-1][len(c.route.phases[len(c.route.phases)-1])-1]
		if first.Pos == last.Pos {
			last.Pos = geom.Pt(first.Pos.X+30, first.Pos.Y)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		c.route.approach = append(c.route.approach, Waypoint{Pos: gridPoint(rng), TargetID: NoTarget})
	}
	if n := len(c.route.approach); n > 0 {
		if rng.Intn(2) == 0 {
			c.route.approach[n-1].Pos = c.route.entry()
		}
		c.route.hold = float64(rng.Intn(4)) * 10
	}
	return c
}

// run runs the mule to the horizon on the engine or ahead of it with
// RunUntil, recording visits in a recorder (through OnVisit on the
// engine, straight into the recorder from the compiled table ahead),
// and returns every target's log, the recharges and the final state,
// the leg in flight and the route's cursor included, with floats as
// bits; and how many visits ran from the table, which are the ones
// that bypassed OnVisit.
func (c cycleCase) run(ahead bool, horizon float64) ([]string, int) {
	eng := sim.New()
	rec := metrics.NewRecorderCap(6, nil)
	var log []string
	calls := 0
	r := c.route.router()
	m := New(eng, Config{
		Start: c.start, Speed: c.speed, Energy: c.model, Router: r,
		OnVisit: func(mule, target int, t float64) {
			calls++
			rec.OnVisit(mule, target, t)
		},
		OnRecharge: func(_ int, t float64) {
			log = append(log, fmt.Sprintf("recharge %x", math.Float64bits(t)))
		},
	})
	if ahead {
		r.Compile(rec)
		m.RunUntil(horizon)
	} else {
		m.Launch()
		eng.RunUntil(horizon)
	}
	for id := 0; id < rec.NumTargets(); id++ {
		line := fmt.Appendf(nil, "t%d:", id)
		for _, v := range rec.VisitTimes(id) {
			line = strconv.AppendUint(append(line, ' '), math.Float64bits(v), 16)
		}
		log = append(log, string(line))
	}
	return append(log, fmt.Sprintf("final dist %x energy %x visits %d recharges %d pos %v leg %v %v %v %x %x %+v %x %v cursor %+v from %v",
		math.Float64bits(m.Distance()), math.Float64bits(m.EnergyConsumed()), m.Visits(), m.Recharges(),
		m.Pos(), m.inFlight, m.legFrom, m.legTo, math.Float64bits(m.legDepart), math.Float64bits(m.legDist),
		m.legWP, math.Float64bits(m.legEnergy), m.legDies, r.cur, r.from)), m.Visits() - calls
}

// arrivals returns every visit instant of an engine run to horizon.
func (c cycleCase) arrivals(horizon float64) []float64 {
	eng := sim.New()
	var out []float64
	New(eng, Config{
		Start: c.start, Speed: c.speed, Energy: c.model, Router: c.route.router(),
		OnVisit: func(_, _ int, t float64) { out = append(out, t) },
	}).Launch()
	eng.RunUntil(horizon)
	return out
}
