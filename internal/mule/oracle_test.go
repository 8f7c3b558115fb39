package mule

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/sim"
)

// RouterFunc adapts a function to the Router interface, measuring
// each leg from the mule's position: the oracles' routes, and
// reroutes onto them.
type RouterFunc func(m *Mule) (Waypoint, bool)

// Next implements Router.
func (f RouterFunc) Next(m *Mule) (Waypoint, float64, bool) {
	wp, ok := f(m)
	return wp, m.pos.Dist(wp.Pos), ok
}

// refMule is the two-event mule the one-event-per-leg Mule replaced,
// kept as the oracle: an arrival schedules a departure event after the
// dwell and hold, and only the departure asks for the next stop and
// schedules the next arrival. Everything else — bookkeeping, battery
// deaths, preemption — is the same code.
type refMule struct {
	cfg    Config
	next   func() (Waypoint, bool)
	eng    *sim.Engine
	pos    geom.Point
	dead   bool
	parked bool

	pending   sim.Cancel
	inFlight  bool
	legFrom   geom.Point
	legTo     geom.Point
	legDepart float64
	legDist   float64
	legWP     Waypoint
	legEnergy float64

	distance  float64
	visits    int
	energyUse float64
	recharges int
}

func (m *refMule) Launch() { m.pending = m.eng.After(0, m.advance) }

func (m *refMule) advance() {
	if m.dead || m.parked {
		return
	}
	wp, ok := m.next()
	if !ok {
		m.parked = true
		return
	}
	dist := m.pos.Dist(wp.Pos)
	moveEnergy := m.cfg.Energy.MoveEnergy(dist)
	if b := m.cfg.Battery; b != nil && !b.CanAfford(moveEnergy) {
		affordable := dist
		if m.cfg.Energy.MoveCost > 0 {
			affordable = b.Level() / m.cfg.Energy.MoveCost
		}
		if affordable > dist {
			affordable = dist
		}
		deathPos := wp.Pos
		if dist > 0 {
			deathPos = m.pos.Lerp(wp.Pos, affordable/dist)
		}
		m.startLeg(deathPos, affordable)
		m.pending = m.eng.After(affordable/m.cfg.Speed, func() {
			m.inFlight = false
			m.energyUse += b.Level()
			b.Drain(b.Level() + 1)
			m.distance += affordable
			m.pos = deathPos
			m.dead = true
			if m.cfg.OnDeath != nil {
				m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
			}
		})
		return
	}
	m.startLeg(wp.Pos, dist)
	m.legWP, m.legEnergy = wp, moveEnergy
	m.pending = m.eng.After(dist/m.cfg.Speed, m.arrive)
}

func (m *refMule) startLeg(to geom.Point, dist float64) {
	m.inFlight = true
	m.legFrom = m.pos
	m.legTo = to
	m.legDepart = m.eng.Now()
	m.legDist = dist
}

func (m *refMule) settleLeg() {
	if !m.inFlight {
		return
	}
	m.inFlight = false
	covered := (m.eng.Now() - m.legDepart) * m.cfg.Speed
	if covered > m.legDist {
		covered = m.legDist
	}
	if covered < 0 {
		covered = 0
	}
	if m.legDist > 0 {
		m.pos = m.legFrom.Lerp(m.legTo, covered/m.legDist)
	} else {
		m.pos = m.legTo
	}
	m.distance += covered
	e := m.cfg.Energy.MoveEnergy(covered)
	m.energyUse += e
	if b := m.cfg.Battery; b != nil {
		b.Drain(e)
	}
}

func (m *refMule) PosNow() geom.Point {
	if !m.inFlight || m.legDist <= 0 {
		return m.pos
	}
	frac := (m.eng.Now() - m.legDepart) * m.cfg.Speed / m.legDist
	if frac <= 0 {
		return m.legFrom
	}
	if frac >= 1 {
		return m.legTo
	}
	return m.legFrom.Lerp(m.legTo, frac)
}

func (m *refMule) Kill() {
	if m.dead {
		return
	}
	m.pending.Cancel()
	m.settleLeg()
	m.dead = true
	if m.cfg.OnDeath != nil {
		m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
	}
}

func (m *refMule) Reroute(next func() (Waypoint, bool)) {
	m.next = next
	if m.dead {
		return
	}
	m.pending.Cancel()
	m.settleLeg()
	m.parked = false
	m.pending = m.eng.After(0, m.advance)
}

func (m *refMule) arrive() {
	if m.dead {
		return
	}
	wp, dist, moveEnergy := m.legWP, m.legDist, m.legEnergy
	m.inFlight = false
	m.pos = wp.Pos
	m.distance += dist
	m.energyUse += moveEnergy
	if b := m.cfg.Battery; b != nil {
		b.Drain(moveEnergy)
	}
	if wp.Recharge {
		if b := m.cfg.Battery; b != nil {
			b.Recharge()
		}
		m.recharges++
		if m.cfg.OnRecharge != nil {
			m.cfg.OnRecharge(m.cfg.ID, m.eng.Now())
		}
	}
	if wp.TargetID == NoTarget {
		m.pending = m.eng.After(m.holdDelay(wp, 0), m.advance)
		return
	}
	m.visits++
	if m.cfg.OnVisit != nil {
		m.cfg.OnVisit(m.cfg.ID, wp.TargetID, m.eng.Now())
	}
	visitEnergy := m.cfg.Energy.VisitEnergy()
	if b := m.cfg.Battery; b != nil {
		if !b.CanAfford(visitEnergy) {
			m.energyUse += b.Level()
			b.Drain(b.Level() + 1)
			m.dead = true
			if m.cfg.OnDeath != nil {
				m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
			}
			return
		}
		b.Drain(visitEnergy)
	}
	m.energyUse += visitEnergy
	m.pending = m.eng.After(m.holdDelay(wp, m.cfg.Energy.Dwell), m.advance)
}

func (m *refMule) holdDelay(wp Waypoint, dwell float64) float64 {
	d := dwell
	if wait := wp.NotBefore - m.eng.Now(); wait > d {
		d = wait
	}
	return d
}

// script is a deterministic route: its waypoints in order, looped or
// once. Each run gets its own copy, so both mules see the same stops.
type script struct {
	wps  []Waypoint
	loop bool
	i    int
}

func (s *script) next() (Waypoint, bool) {
	if s.i >= len(s.wps) {
		if !s.loop {
			return Waypoint{}, false
		}
		s.i = 0
	}
	wp := s.wps[s.i]
	s.i++
	return wp, true
}

// oracleScenario is one randomized multi-mule run: routes on a coarse
// grid whose legs and speeds produce exact same-instant ties, per-mule
// holds, optional batteries, and a schedule of preemptions.
type oracleScenario struct {
	model   energy.Model
	starts  []geom.Point
	speeds  []float64
	battery []float64 // capacity per mule; 0 = unconstrained
	routes  []script
	preempt []preemption
	probes  []float64 // instants at which every mule's PosNow is logged
	horizon float64
}

// preemption kills mule or, when routes is non-nil, reroutes every
// live mule onto its own new route in one batch, as a replan does.
type preemption struct {
	at     float64
	mule   int
	routes []script
}

func gridPoint(rng *rand.Rand) geom.Point {
	xs := []float64{0, 30, 60, 90}
	ys := []float64{0, 40, 80}
	return geom.Pt(xs[rng.Intn(len(xs))], ys[rng.Intn(len(ys))])
}

func randomScript(rng *rand.Rand, hold float64) script {
	n := 2 + rng.Intn(5)
	wps := make([]Waypoint, n)
	for i := range wps {
		wps[i] = Waypoint{Pos: gridPoint(rng), TargetID: rng.Intn(6)}
		if rng.Intn(4) == 0 {
			wps[i].TargetID = NoTarget
		}
		if rng.Intn(6) == 0 {
			wps[i].Recharge = true
		}
	}
	// A per-mule hold at the first stop, like a route's ExtraHold.
	wps[0].NotBefore = hold
	// Two distinct positions keep a looped route from spinning at one
	// instant.
	wps[n-1].Pos = geom.Pt(wps[0].Pos.X+30, wps[0].Pos.Y)
	return script{wps: wps, loop: rng.Intn(5) != 0}
}

func randomOracleScenario(rng *rand.Rand) oracleScenario {
	sc := oracleScenario{horizon: 400 + float64(rng.Intn(400))}
	sc.model = energy.Model{
		MoveCost:    []float64{0, 0.5, 1}[rng.Intn(3)],
		CollectCost: []float64{0, 1, 3}[rng.Intn(3)],
		Dwell:       []float64{0, 1, 2.5, 10}[rng.Intn(4)],
	}
	k := 1 + rng.Intn(4)
	for j := 0; j < k; j++ {
		sc.starts = append(sc.starts, gridPoint(rng))
		sc.speeds = append(sc.speeds, []float64{1, 2, 5}[rng.Intn(3)])
		capacity := 0.0
		if rng.Intn(2) == 0 {
			capacity = float64(50 + rng.Intn(300))
		}
		sc.battery = append(sc.battery, capacity)
		sc.routes = append(sc.routes, randomScript(rng, float64(rng.Intn(4))*10))
	}
	for i := rng.Intn(5); i > 0; i-- {
		p := preemption{at: float64(rng.Intn(int(sc.horizon))), mule: rng.Intn(k)}
		if rng.Intn(3) == 0 {
			p.at += rng.Float64()
		}
		if rng.Intn(2) == 0 {
			hold := p.at + float64(rng.Intn(3))*5
			for j := 0; j < k; j++ {
				p.routes = append(p.routes, randomScript(rng, hold))
			}
		}
		sc.preempt = append(sc.preempt, p)
	}
	for i := rng.Intn(6); i > 0; i-- {
		sc.probes = append(sc.probes, rng.Float64()*sc.horizon)
	}
	return sc
}

// mover is what the oracle run needs of a mule, so one function runs
// both implementations.
type mover interface {
	Launch()
	Kill()
	PosNow() geom.Point
}

// run simulates the scenario with Mule (ref false) or refMule (ref
// true) and returns the observer log, one line per callback or probe,
// followed by every mule's final state. Floats are logged as bits.
// When offsets is non-nil, run records for every preempted Mule in
// flight how far past its departure instant the preemption came
// (negative: mid-dwell).
func (sc oracleScenario) run(ref bool, offsets *[]float64) []string {
	eng := sim.New()
	var log []string
	bits := func(p geom.Point) string {
		return fmt.Sprintf("(%x,%x)", math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	movers := make([]mover, len(sc.starts))
	news := make([]*Mule, len(sc.starts))
	refs := make([]*refMule, len(sc.starts))
	batteries := make([]*energy.Battery, len(sc.starts))
	for j := range sc.starts {
		if sc.battery[j] > 0 {
			batteries[j] = energy.NewBattery(sc.battery[j])
		}
		route := sc.routes[j]
		cfg := Config{
			ID: j, Start: sc.starts[j], Speed: sc.speeds[j], Energy: sc.model, Battery: batteries[j],
			Router: RouterFunc(func(*Mule) (Waypoint, bool) { return route.next() }),
			OnVisit: func(id, target int, t float64) {
				log = append(log, fmt.Sprintf("visit m%d t%d %x", id, target, math.Float64bits(t)))
			},
			OnDeath: func(id int, t float64, p geom.Point) {
				log = append(log, fmt.Sprintf("death m%d %x %s", id, math.Float64bits(t), bits(p)))
			},
			OnRecharge: func(id int, t float64) {
				log = append(log, fmt.Sprintf("recharge m%d %x", id, math.Float64bits(t)))
			},
		}
		if ref {
			refs[j] = &refMule{cfg: cfg, next: route.next, eng: eng, pos: cfg.Start}
			movers[j] = refs[j]
		} else {
			news[j] = New(eng, cfg)
			movers[j] = news[j]
		}
	}
	for _, p := range sc.preempt {
		p := p
		eng.Schedule(p.at, func() {
			for j, m := range news {
				if offsets != nil && m.inFlight && !m.dead && (p.routes != nil || j == p.mule) {
					*offsets = append(*offsets, eng.Now()-m.legDepart)
				}
			}
			if p.routes == nil {
				movers[p.mule].Kill()
				return
			}
			for j := range movers {
				route := p.routes[j]
				switch {
				case ref && !refs[j].dead:
					refs[j].Reroute(route.next)
				case !ref && !news[j].Dead():
					news[j].Reroute(RouterFunc(func(*Mule) (Waypoint, bool) { return route.next() }))
				}
			}
		})
	}
	for _, at := range sc.probes {
		eng.Schedule(at, func() {
			for j, m := range movers {
				log = append(log, fmt.Sprintf("probe m%d %x %s", j, math.Float64bits(eng.Now()), bits(m.PosNow())))
			}
		})
	}
	for _, m := range movers {
		m.Launch()
	}
	eng.RunUntil(sc.horizon)
	for j, m := range movers {
		var dist, energyUse float64
		var visits, recharges int
		var dead bool
		var pos geom.Point
		if ref {
			r := refs[j]
			dist, energyUse, visits, recharges, dead, pos = r.distance, r.energyUse, r.visits, r.recharges, r.dead, r.pos
		} else {
			n := news[j]
			dist, energyUse, visits, recharges, dead, pos = n.Distance(), n.EnergyConsumed(), n.Visits(), n.Recharges(), n.Dead(), n.Pos()
		}
		level := -1.0
		if batteries[j] != nil {
			level = batteries[j].Level()
		}
		log = append(log, fmt.Sprintf("final m%d dist %x energy %x visits %d recharges %d dead %v pos %s now %s battery %x",
			j, math.Float64bits(dist), math.Float64bits(energyUse), visits, recharges, dead,
			bits(pos), bits(m.PosNow()), math.Float64bits(level)))
	}
	return log
}

// departureInstants runs the reference without preemptions and
// returns every departure instant before the horizon, so preemptions
// can be placed exactly on them.
func (sc oracleScenario) departureInstants() []float64 {
	eng := sim.New()
	var out []float64
	for j := range sc.starts {
		route := sc.routes[j]
		var battery *energy.Battery
		if sc.battery[j] > 0 {
			battery = energy.NewBattery(sc.battery[j])
		}
		m := &refMule{cfg: Config{ID: j, Start: sc.starts[j], Speed: sc.speeds[j], Energy: sc.model, Battery: battery}, eng: eng, pos: sc.starts[j]}
		m.next = func() (Waypoint, bool) {
			if eng.Now() > 0 {
				out = append(out, eng.Now())
			}
			return route.next()
		}
		m.Launch()
	}
	eng.RunUntil(sc.horizon)
	return out
}

// TestOneEventPerLegMatchesTwoEventOracle runs randomized scenarios
// through Mule and the two-event refMule and requires identical
// observer callback sequences, PosNow probes and final statistics.
func TestOneEventPerLegMatchesTwoEventOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var ties, deaths, midDwell, atDepart, midLeg int
	for i := 0; i < 1500; i++ {
		sc := randomOracleScenario(rng)
		// Put some preemptions exactly on a departure instant.
		if deps := sc.departureInstants(); len(deps) > 0 {
			for j := range sc.preempt {
				if rng.Intn(2) == 0 {
					sc.preempt[j].at = deps[rng.Intn(len(deps))]
				}
			}
		}
		var offsets []float64
		got := sc.run(false, &offsets)
		want := sc.run(true, nil)
		if len(got) != len(want) {
			t.Fatalf("scenario %d: %d log lines, oracle %d\ngot  %q\nwant %q", i, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("scenario %d line %d:\ngot  %s\nwant %s", i, k, got[k], want[k])
			}
		}
		for k := 1; k < len(got); k++ {
			var m1, m2 int
			var t1, t2 uint64
			if _, err := fmt.Sscanf(got[k-1], "visit m%d t%d %x", &m1, new(int), &t1); err != nil {
				continue
			}
			if _, err := fmt.Sscanf(got[k], "visit m%d t%d %x", &m2, new(int), &t2); err == nil && t1 == t2 && m1 != m2 {
				ties++
			}
		}
		for _, line := range got {
			if len(line) > 5 && line[:5] == "death" {
				deaths++
			}
		}
		for _, d := range offsets {
			switch {
			case d < 0:
				midDwell++
			case d == 0:
				atDepart++
			default:
				midLeg++
			}
		}
	}
	t.Logf("same-instant visits by different mules %d, deaths %d, preemptions mid-dwell %d, at departure %d, mid-leg %d",
		ties, deaths, midDwell, atDepart, midLeg)
	if ties == 0 || deaths == 0 || midDwell == 0 || atDepart == 0 || midLeg == 0 {
		t.Fatal("the randomized scenarios miss a case the oracle must cover")
	}
}

// solo runs mule j of the scenario alone to the horizon, on the engine
// (Launch, then the engine's RunUntil) or on its own clock (RunUntil),
// and returns its callback log followed by its final state, the leg in
// flight included. Floats are logged as bits.
func (sc oracleScenario) solo(j int, ahead bool, horizon float64) []string {
	eng := sim.New()
	var log []string
	var battery *energy.Battery
	if sc.battery[j] > 0 {
		battery = energy.NewBattery(sc.battery[j])
	}
	route := sc.routes[j]
	m := New(eng, Config{
		ID: j, Start: sc.starts[j], Speed: sc.speeds[j], Energy: sc.model, Battery: battery,
		Router: RouterFunc(func(*Mule) (Waypoint, bool) { return route.next() }),
		OnVisit: func(_, target int, t float64) {
			log = append(log, fmt.Sprintf("visit t%d %x", target, math.Float64bits(t)))
		},
		OnDeath: func(_ int, t float64, p geom.Point) {
			log = append(log, fmt.Sprintf("death %x %x %x", math.Float64bits(t), math.Float64bits(p.X), math.Float64bits(p.Y)))
		},
		OnRecharge: func(_ int, t float64) {
			log = append(log, fmt.Sprintf("recharge %x", math.Float64bits(t)))
		},
	})
	if ahead {
		m.RunUntil(horizon)
	} else {
		m.Launch()
		eng.RunUntil(horizon)
	}
	level := -1.0
	if battery != nil {
		level = battery.Level()
	}
	return append(log, fmt.Sprintf("final dist %x energy %x visits %d recharges %d dead %v parked %v pos %v leg %v %v %v %x %x",
		math.Float64bits(m.Distance()), math.Float64bits(m.EnergyConsumed()), m.Visits(), m.Recharges(),
		m.Dead(), m.parked, m.Pos(), m.inFlight, m.legFrom, m.legTo,
		math.Float64bits(m.legDepart), math.Float64bits(m.legDist)), fmt.Sprintf("battery %x", math.Float64bits(level)))
}

// TestRunUntilMatchesEngine runs each mule of randomized scenarios
// alone, once on the engine and once ahead of it with RunUntil, and
// requires the same callbacks, final statistics and leg in flight:
// battery deaths mid-leg and mid-collection, recharges, holds, parked
// routes, and horizons that land exactly on an arrival, which both
// runs must book.
func TestRunUntilMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var onArrival, deaths int
	for i := 0; i < 1000; i++ {
		sc := randomOracleScenario(rng)
		for j := range sc.starts {
			horizon := sc.horizon
			if rng.Intn(2) == 0 {
				// Move the horizon onto one of the mule's arrivals.
				var arrivals []float64
				for _, line := range sc.solo(j, false, horizon) {
					var bits uint64
					if _, err := fmt.Sscanf(line, "visit t%d %x", new(int), &bits); err == nil {
						arrivals = append(arrivals, math.Float64frombits(bits))
					}
				}
				if len(arrivals) > 0 {
					horizon = arrivals[rng.Intn(len(arrivals))]
					onArrival++
				}
			}
			got, want := sc.solo(j, true, horizon), sc.solo(j, false, horizon)
			if len(got) != len(want) {
				t.Fatalf("scenario %d mule %d horizon %v: %d log lines ahead, %d on the engine\nahead  %q\nengine %q",
					i, j, horizon, len(got), len(want), got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("scenario %d mule %d horizon %v line %d:\nahead  %s\nengine %s", i, j, horizon, k, got[k], want[k])
				}
			}
			for _, line := range got {
				if strings.HasPrefix(line, "death") {
					deaths++
				}
			}
		}
	}
	if onArrival == 0 || deaths == 0 {
		t.Fatalf("horizons on an arrival %d, deaths %d: the scenarios miss a case", onArrival, deaths)
	}
}
