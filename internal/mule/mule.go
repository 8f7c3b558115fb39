// Package mule implements the data-mule entity: a mobile agent that
// travels between waypoints at constant speed (the paper uses 2 m/s),
// dwells at targets to collect their data, drains its battery
// according to the energy model, recharges at recharge-station
// waypoints, and dies where it stands when the battery empties
// mid-leg — exactly the failure mode RW-TCTP is designed to prevent.
//
// Route decisions are delegated to a Router, so the same entity serves
// the fixed-route planners (B/W/RW-TCTP, CHB, Sweep) and the online
// Random baseline.
//
// On the engine a leg is one event. On arrival the mule books the leg,
// visits, asks its Router for the next stop and schedules the next
// arrival at departure + distance/speed, where the departure instant
// already includes the collection dwell and any NotBefore hold. sim.AfterFrom
// files that arrival as though scheduled at the departure instant, so
// simultaneous events keep the order separate departure events gave
// them. Only Launch and Reroute spend an extra event, to start the
// first leg; see Reroute for the one ordering this cannot reproduce.
//
// A mule whose legs depend on nothing but its own router need not be on
// the engine at all: RunUntil runs the same legs back to back on the
// mule's own clock, in place of Launch, and spends no event. arrive and
// depart take the instant they act at as a parameter, so the engine
// handlers and RunUntil share their leg bookkeeping, and RunUntil
// serves any Router: an online router that reads only its own mule and
// draws only from its own stream (Random's) runs ahead leg by leg,
// through depart and arrive. patrol.Run decides which mules may run
// ahead. A fixed route is a Route, whose cycle is a
// leg table walked by a cursor; compiled for the run's recorder, it
// lets RunUntil run the cycle in a tight loop over the table, with the
// float expressions of depart and arrive in their order, and hand each
// visit straight to the recorder, or, for a mule parked at one target,
// every visit in one stride. Mules that run ahead may share
// targets: each appends its visits to a target's log as one time-sorted
// run in a recorder that allows runs (metrics.Recorder.AllowRuns), and
// the recorder finds the runs at the log's descents and merges them,
// gathering them in one pass when they interleave round-robin
// (metrics.Recorder.MergeRuns).
package mule

import (
	"fmt"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/sim"
)

// NoTarget marks a waypoint that is not a target visit (e.g. the
// start point a mule moves to during location initialization).
const NoTarget = -1

// Waypoint is one stop on a mule's route.
type Waypoint struct {
	// Pos is the waypoint location.
	Pos geom.Point
	// TargetID is the target collected at this waypoint, or NoTarget.
	TargetID int
	// Recharge marks a recharge-station stop; the battery is restored
	// to full capacity on arrival.
	Recharge bool
	// NotBefore holds the mule at this waypoint until the given
	// absolute simulation time before it proceeds. B-TCTP's location
	// initialization uses it to start all mules patrolling
	// simultaneously once the slowest mule has reached its start
	// point. Zero means no hold.
	NotBefore float64
}

// Router supplies a mule's next waypoint and the length of the leg to
// it, which must equal m.Pos().Dist(wp.Pos) bit for bit; a router that
// knows its route can return a precomputed length instead of paying
// for the square root. Next is called at the moment the mule arrives
// at its current stop, before the dwell there: when the mule launches,
// when it is rerouted, and on every arrival that does not kill it.
// Returning ok == false parks the mule permanently.
type Router interface {
	Next(m *Mule) (wp Waypoint, dist float64, ok bool)
}

// Config parameterizes a mule.
type Config struct {
	// ID identifies the mule in callbacks.
	ID int
	// Start is the initial location.
	Start geom.Point
	// Speed is the travel speed in m/s (paper: 2 m/s). Must be > 0.
	Speed float64
	// Energy is the consumption model (costs and dwell time).
	Energy energy.Model
	// Battery constrains the mule's energy; nil means unconstrained
	// (the B-TCTP and W-TCTP experiments ignore energy).
	Battery *energy.Battery
	// Router supplies waypoints. Required.
	Router Router
	// OnVisit, if non-nil, is called at the moment the mule arrives at
	// a target waypoint (visit timestamps define the paper's visiting
	// intervals).
	OnVisit func(muleID, targetID int, t float64)
	// OnDeath, if non-nil, is called when the battery empties.
	OnDeath func(muleID int, t float64, pos geom.Point)
	// OnRecharge, if non-nil, is called after a recharge completes.
	OnRecharge func(muleID int, t float64)
}

// Mule is the simulated agent. Create with New, start with Launch.
type Mule struct {
	cfg    Config
	eng    *sim.Engine
	pos    geom.Point
	dead   bool
	parked bool

	// pending is the mule's single outstanding engine event (there is
	// never more than one); Kill and Reroute cancel it to preempt the
	// mule mid-leg or mid-dwell.
	pending sim.Cancel
	// advanceFn and arriveFn are m.advance and m.onArrive bound once
	// in New: a method value taken at each After would allocate per
	// leg.
	advanceFn, arriveFn sim.Handler
	// Leg tracking for preemption: while inFlight, the mule dwells at
	// legFrom until legDepart and then travels the segment
	// legFrom→legTo; its true position is time-interpolated.
	inFlight  bool
	legFrom   geom.Point
	legTo     geom.Point
	legDepart float64
	legDist   float64
	// legWP and legEnergy are the waypoint and move energy of the leg
	// arrive completes, and legDies marks a leg the battery cannot
	// finish: it ends at legTo, legDist along the way, in the mule's
	// death. They live here rather than in a per-leg closure; this is
	// safe because the arrival is the mule's one pending event and
	// Kill/Reroute cancel it before a new leg overwrites them, and
	// arrive reads them before it starts the next leg.
	legWP     Waypoint
	legEnergy float64
	legDies   bool

	distance  float64
	visits    int
	energyUse float64
	recharges int
}

// New creates a mule bound to the engine. It panics on invalid
// configuration.
func New(eng *sim.Engine, cfg Config) *Mule {
	m := new(Mule)
	m.Reset(eng, cfg)
	return m
}

// Reset makes m the mule New(eng, cfg) returns, keeping only its bound
// handlers, so a caller that runs simulation after simulation
// (patrol.Scratch) reuses its mules. Any event m still has pending on
// its old engine must be gone (sim.Engine.Reset drops them). It panics
// on invalid configuration.
func (m *Mule) Reset(eng *sim.Engine, cfg Config) {
	if cfg.Speed <= 0 {
		panic(fmt.Sprintf("mule: speed %v must be positive", cfg.Speed))
	}
	if cfg.Router == nil {
		panic("mule: nil router")
	}
	advanceFn, arriveFn := m.advanceFn, m.arriveFn
	if advanceFn == nil {
		advanceFn, arriveFn = m.advance, m.onArrive
	}
	*m = Mule{cfg: cfg, eng: eng, pos: cfg.Start, advanceFn: advanceFn, arriveFn: arriveFn}
}

// Launch schedules the mule's first movement at the current simulation
// time.
func (m *Mule) Launch() {
	m.pending = m.eng.After(0, m.advanceFn)
}

// Pos returns the mule's current (last event) position.
func (m *Mule) Pos() geom.Point { return m.pos }

// Dead reports whether the mule has exhausted its battery.
func (m *Mule) Dead() bool { return m.dead }

// Distance returns the total distance travelled in metres.
func (m *Mule) Distance() float64 { return m.distance }

// Visits returns the number of target collections performed.
func (m *Mule) Visits() int { return m.visits }

// EnergyConsumed returns the total energy drained in joules
// (irrespective of recharges).
func (m *Mule) EnergyConsumed() float64 { return m.energyUse }

// Recharges returns how many recharge stops the mule has completed.
func (m *Mule) Recharges() int { return m.recharges }

// RunUntil runs the mule's legs back to back, on its own clock, up to
// and including every arrival at or before t, in place of Launch: the
// mule starts at the engine's current instant and schedules nothing.
// It leaves the mule exactly as the engine would at t — every arrival
// at or before t booked and visited, the next leg in flight — but its
// callbacks fire before any engine event runs, so only a mule whose
// legs depend on nothing but its own route may run ahead: its router,
// battery and callbacks touch nothing another mule or event reads or
// writes, and no callback depends on the order of visits across mules.
// Its visits to a target it shares with other mules reach the recorder
// as one time-sorted run among theirs, which a recorder that allows
// runs (metrics.Recorder.AllowRuns) finds at its descents and merges. Kill and Reroute have
// nothing to cancel on a mule that ran ahead.
//
// A mule without a battery whose router is a compiled Route runs the
// route's cycle from its leg table: no Next call, no square root, no
// callback per leg, each visit appended straight to the recorder (see
// Route.Compile). A mule parked at one target hands the recorder all
// its visits to t in one stride (see runCycle). Only the legs the
// table cannot serve go through
// depart and arrive: the approach, a first cycle leg that starts off
// the table's from point, a recharge stop, and the final leg, which
// stays in flight.
func (m *Mule) RunUntil(t float64) {
	if m.dead || m.parked {
		return
	}
	r, _ := m.cfg.Router.(*Route)
	if r != nil && (r.rec == nil || m.cfg.Battery != nil) {
		r = nil
	}
	dep := m.eng.Now()
	for {
		if r != nil && r.done == len(r.approach) {
			dep = m.runCycle(r, dep, t)
		}
		d, ok := m.depart(dep)
		if !ok || dep+d > t {
			return
		}
		if dep, ok = m.arrive(dep + d); !ok {
			return
		}
	}
}

// advance starts a leg from where the mule stands, now: the first leg
// after Launch or Reroute.
func (m *Mule) advance() {
	if m.dead || m.parked {
		return
	}
	m.schedule(m.eng.Now())
}

// onArrive is the engine handler that ends a leg: it completes the leg
// and schedules the next one.
func (m *Mule) onArrive() {
	if dep, ok := m.arrive(m.eng.Now()); ok {
		m.schedule(dep)
	}
}

// schedule books the leg that leaves at instant dep and files its
// arrival with the engine.
func (m *Mule) schedule(dep float64) {
	if d, ok := m.depart(dep); ok {
		m.pending = m.eng.AfterFrom(dep, d, m.arriveFn)
	}
}

// depart asks the router for the next waypoint and books the leg that
// leaves the current position at instant dep (now, or the end of the
// dwell and hold at the stop the mule has just reached). It returns
// the leg's duration, which ends in arrive, or ok == false when the
// router parks the mule.
func (m *Mule) depart(dep float64) (d float64, ok bool) {
	wp, dist, ok := m.cfg.Router.Next(m)
	if !ok {
		m.parked = true
		return 0, false
	}
	moveEnergy := m.cfg.Energy.MoveEnergy(dist)

	// Nothing drains between arrival and departure, so the battery
	// can be checked now for the whole leg.
	if b := m.cfg.Battery; b != nil && !b.CanAfford(moveEnergy) {
		// The battery empties mid-leg: the mule dies after covering
		// whatever distance the remaining charge affords.
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
		m.startLeg(deathPos, affordable, dep)
		m.legDies = true
		return affordable / m.cfg.Speed, true
	}

	m.startLeg(wp.Pos, dist, dep)
	m.legWP, m.legEnergy, m.legDies = wp, moveEnergy, false
	return dist / m.cfg.Speed, true
}

// startLeg records the segment the mule leaves on at instant dep, so
// Kill/Reroute/PosNow can place the mule before the arrival event.
func (m *Mule) startLeg(to geom.Point, dist, dep float64) {
	m.inFlight = true
	m.legFrom = m.pos
	m.legTo = to
	m.legDepart = dep
	m.legDist = dist
}

// settleLeg finalizes a preempted leg: the mule is moved to its
// time-interpolated position and the distance/energy actually spent on
// the partial leg is booked, exactly as arrive would have booked the
// whole leg. A mule preempted at or before its departure instant is
// still dwelling: it stays at legFrom and nothing is booked.
func (m *Mule) settleLeg() {
	if !m.inFlight {
		return
	}
	m.inFlight = false
	if m.eng.Now() <= m.legDepart {
		return
	}
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

// PosNow returns the mule's position at the current simulation time,
// interpolating along the in-flight leg when the mule is between
// waypoint events (a mule still dwelling is at legFrom).
func (m *Mule) PosNow() geom.Point {
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

// Kill stops the mule where it stands at the current simulation time —
// the injected-failure analogue of a battery death. The in-flight leg
// (if any) is settled at the interpolated position, the pending event
// is cancelled, and OnDeath fires. Killing a dead mule is a no-op.
func (m *Mule) Kill() {
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

// Reroute swaps the mule's router mid-simulation: the in-flight leg is
// settled at the interpolated position, any pending dwell or hold is
// abandoned, and the mule immediately asks the new router for its next
// waypoint. Rerouting a dead mule only records the router.
//
// The first leg starts from an event of its own at the current instant.
// Another mule that arrives at that instant with no dwell or hold to
// serve schedules its next leg without one, so where the two next
// arrivals tie, it now arrives first, while two departure events would
// have let the rerouted mule arrive first. Rerouting every live mule
// in one batch, as patrol's replans do, cancels any such arrival.
// Launch after the simulation has started behaves the same way.
func (m *Mule) Reroute(r Router) {
	m.cfg.Router = r
	if m.dead {
		return
	}
	m.pending.Cancel()
	m.settleLeg()
	m.parked = false
	m.pending = m.eng.After(0, m.advanceFn)
}

// arrive completes, at instant now, the leg depart booked (legWP,
// legDist, legEnergy): position/energy bookkeeping, recharge and
// collection. It returns the instant the next leg departs, once the
// dwell and hold are over, or ok == false when the mule is dead.
func (m *Mule) arrive(now float64) (dep float64, ok bool) {
	if m.dead {
		return 0, false
	}
	m.inFlight = false
	if m.legDies {
		m.distance += m.legDist
		m.pos = m.legTo
		m.die(now)
		return 0, false
	}
	wp, dist, moveEnergy := m.legWP, m.legDist, m.legEnergy
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
			m.cfg.OnRecharge(m.cfg.ID, now)
		}
	}

	if wp.TargetID == NoTarget {
		return now + holdDelay(wp, 0, now), true
	}

	// Target visit: the timestamp of record is the arrival instant.
	m.visits++
	if m.cfg.OnVisit != nil {
		m.cfg.OnVisit(m.cfg.ID, wp.TargetID, now)
	}
	visitEnergy := m.cfg.Energy.VisitEnergy()
	if b := m.cfg.Battery; b != nil {
		if !b.CanAfford(visitEnergy) {
			m.die(now)
			return 0, false
		}
		b.Drain(visitEnergy)
	}
	m.energyUse += visitEnergy
	return now + holdDelay(wp, m.cfg.Energy.Dwell, now), true
}

// die empties the battery and kills the mule where it stands at
// instant now.
func (m *Mule) die(now float64) {
	b := m.cfg.Battery
	m.energyUse += b.Level()
	b.Drain(b.Level() + 1) // force dead
	m.dead = true
	if m.cfg.OnDeath != nil {
		m.cfg.OnDeath(m.cfg.ID, now, m.pos)
	}
}

// holdDelay returns the time to stay at the waypoint the mule reached
// at instant now: at least the collection dwell, extended so the mule
// does not leave before wp.NotBefore.
func holdDelay(wp Waypoint, dwell, now float64) float64 {
	d := dwell
	if wait := wp.NotBefore - now; wait > d {
		d = wait
	}
	return d
}
