package mule

import (
	"math"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/metrics"
	"tctp/internal/stats"
)

// Route is the Router of a fixed route: an approach walked once, the
// mule held at its last stop until a given instant, then a cycle of
// phases looped forever, each phase run its repeat count of times in a
// row. The cycle is a leg table of consecutive AppendPhase blocks, one
// per phase in cycle order, and a phase table, walked by a cursor.
// Compiled for the recorder of the mule that runs it, the table also
// lets RunUntil run the cycle without the router (see Compile). The
// same tables bound what a run of the route records (see Bound), so a
// recorder can be sized before the run.
type Route struct {
	approach []Waypoint
	hold     float64
	// done counts the approach stops handed out.
	done   int
	legs   []Leg
	phases []Phase
	cur    cursor
	// from is the stop the table measured the leg at the cursor from:
	// the stop of the cycle leg handed out last, and the last phase's
	// last stop before the first.
	from geom.Point
	// rec is the recorder the cycle's visits go to once Compile has
	// run; nil before.
	rec *metrics.Recorder
}

// NewRoute returns the router of a route that walks approach, holds
// the mule at the approach's last stop until hold (that stop's
// NotBefore), and then loops the cycle in legs and phases, its cursor
// at the leg into the first phase's first stop from the last phase's
// last stop, which the next-to-last leg entry leads into.
func NewRoute(approach []Waypoint, hold float64, legs []Leg, phases []Phase) Route {
	return Route{approach: approach, hold: hold, legs: legs, phases: phases, from: legs[len(legs)-2].wp.Pos}
}

// Leg is one entry of a Route's leg table: the leg into stop *wp and
// its length, dist, from the stop before it in the cycle.
type Leg struct {
	wp   *Waypoint
	dist float64
}

// Phase is one entry of a Route's phase table: a cycle phase's stop
// count and how many times it runs in a row before the next phase.
type Phase struct{ stops, repeat int }

// AppendPhase appends one cycle phase to a leg and a phase table:
// stops, run repeat times in a row, entered from prev, the previous
// phase's last stop (the phase's own last stop when it is the only
// one). Leg entry i < len(stops) is the leg into stop i from the stop
// before it in the phase (stop 0's from the phase's own last stop,
// which precedes it when the phase repeats); the last entry is the leg
// into stop 0 from prev. The entries point into stops, which must stay
// unchanged while the table is in use.
func AppendPhase(legs []Leg, phases []Phase, stops []Waypoint, repeat int, prev geom.Point) ([]Leg, []Phase) {
	n := len(stops)
	for i := range stops {
		legs = append(legs, Leg{wp: &stops[i], dist: stops[(i+n-1)%n].Pos.Dist(stops[i].Pos)})
	}
	legs = append(legs, Leg{wp: &stops[0], dist: prev.Dist(stops[0].Pos)})
	return legs, append(phases, Phase{stops: n, repeat: repeat})
}

// Next implements Router. An approach leg is measured from the mule's
// position. A cycle leg's length comes from the table when the mule
// stands exactly at the stop the table measured it from, and is
// measured otherwise: the first leg after the approach, or any leg
// after a reroute.
func (r *Route) Next(m *Mule) (Waypoint, float64, bool) {
	if r.done < len(r.approach) {
		wp := r.approach[r.done]
		r.done++
		if r.done == len(r.approach) {
			wp.NotBefore = r.hold
		}
		return wp, m.pos.Dist(wp.Pos), true
	}
	l := &r.legs[r.cur.leg(r.phases)]
	r.cur = r.cur.next(r.phases)
	from := r.from
	r.from = l.wp.Pos
	if m.pos != from {
		return *l.wp, m.pos.Dist(l.wp.Pos), true
	}
	return *l.wp, l.dist, true
}

// Compile readies the route for RunUntil: the cycle's visits go to rec
// through Recorder.Append in place of the mule's OnVisit. Only a
// compiled route runs its cycle from the table, so only a mule whose
// visits nothing but rec may observe should run one.
func (r *Route) Compile(rec *metrics.Recorder) { r.rec = rec }

// Recharges reports whether the route has a recharge stop, on its
// approach or in its cycle.
func (r *Route) Recharges() bool {
	for _, wp := range r.approach {
		if wp.Recharge {
			return true
		}
	}
	for _, l := range r.legs {
		if l.wp.Recharge {
			return true
		}
	}
	return false
}

// Bound bounds what a mule of the given speed and energy model records
// on the route up to horizon. It adds to caps, indexed by target, the
// most log entries the run's visits leave in the recorder, and returns
// the most engine events the run spends on the engine: its launch,
// each approach leg and each cycle leg. The cycle's period is at least
// its length over the speed plus one dwell per target stop, so within
// the horizon the mule starts at most ⌊horizon/period⌋+1 cycles; each
// target gets its occurrences per cycle times one cycle more than that,
// plus its approach occurrences. With compiled, for a mule that runs
// the route compiled (see Compile) and so strides at a parked stop (see
// strider), that stop gets instead the two stored ends of the one span
// the stride leaves, plus one entry when the mule reaches the stop off
// its approach's end. A route with a zero period, whose events nothing
// bounds, returns +Inf and leaves caps unchanged; so does a horizon of
// infinitely many cycles.
func (r *Route) Bound(caps []int, speed float64, model energy.Model, horizon float64, compiled bool) (events float64) {
	length, stops, legs, off := 0.0, 0, 0, 0
	for _, ph := range r.phases {
		in := 0.0
		for _, l := range r.legs[off+1 : off+ph.stops] {
			in += l.dist
		}
		// Each product is rounded before the add, never fused into it.
		length += r.legs[off+ph.stops].dist + float64(float64(ph.repeat-1)*r.legs[off].dist) + float64(float64(ph.repeat)*in)
		for _, l := range r.legs[off : off+ph.stops] {
			if l.wp.TargetID != NoTarget {
				stops += ph.repeat
			}
		}
		legs += ph.repeat * ph.stops
		off += ph.stops + 1
	}
	period := length/speed + float64(float64(stops)*model.Dwell)
	cycles := math.Floor(horizon/period) + 2
	if !(period > 0 && cycles < math.Inf(1)) {
		return math.Inf(1)
	}
	for _, wp := range r.approach {
		if wp.TargetID != NoTarget {
			caps[wp.TargetID]++
		}
	}
	events = 1 + float64(len(r.approach)) + float64(cycles*float64(legs))
	if wp := r.strider(model); wp != nil && compiled {
		caps[wp.TargetID] += 2
		if n := len(r.approach); n == 0 || r.approach[n-1].Pos != wp.Pos {
			caps[wp.TargetID]++
		}
		return events
	}
	off = 0
	for _, ph := range r.phases {
		for _, l := range r.legs[off : off+ph.stops] {
			if l.wp.TargetID != NoTarget {
				caps[l.wp.TargetID] += ph.repeat * int(cycles)
			}
		}
		off += ph.stops + 1
	}
	return events
}

// cursor is a position in a route's tables: the current phase, the
// offset of its block in the leg table, the repetition of the phase
// and the index of the next stop in it.
type cursor struct{ ph, off, rep, idx int }

// leg returns the index in the leg table of the leg at the cursor: into
// stop idx of the current phase, from the previous phase's last stop
// at the phase's first.
func (k cursor) leg(phases []Phase) int {
	if k.idx == 0 && k.rep == 0 {
		return k.off + phases[k.ph].stops
	}
	return k.off + k.idx
}

// next returns the cursor past the leg at k.
func (k cursor) next(phases []Phase) cursor {
	ph := phases[k.ph]
	if k.idx++; k.idx < ph.stops {
		return k
	}
	k.idx = 0
	if k.rep++; k.rep < ph.repeat {
		return k
	}
	k.rep = 0
	k.off += ph.stops + 1
	if k.ph++; k.ph == len(phases) {
		k.ph, k.off = 0, 0
	}
	return k
}

// runCycle runs the route's cycle legs back to back from instant dep
// while the mule stands exactly at the next leg's from point, the leg
// is no recharge stop and it arrives at or before t, and returns the
// instant the next leg departs. It books each leg as depart and arrive
// would for a mule without a battery — the same float expressions in
// the same order — except that a visit goes straight to the recorder.
// Each leg leaves the mule at the next one's from point, so only the
// first is checked. The cursor and the mule's bookkeeping live in
// locals while it runs. A parked mule strides instead (see strider).
func (m *Mule) runCycle(r *Route, dep, t float64) float64 {
	if m.pos != r.from {
		return dep
	}
	speed, model := m.cfg.Speed, m.cfg.Energy
	dwell, visitEnergy := model.Dwell, model.VisitEnergy()
	if wp := r.strider(model); wp != nil {
		return m.stride(r, wp, dep, t)
	}
	legs, phases, cur, rec := r.legs, r.phases, r.cur, r.rec
	pos, distance, energyUse, visits := m.pos, m.distance, m.energyUse, m.visits
	for {
		l := &legs[cur.leg(phases)]
		wp := l.wp
		now := dep + l.dist/speed
		if wp.Recharge || now > t {
			break
		}
		cur = cur.next(phases)
		pos = wp.Pos
		distance += l.dist
		energyUse += model.MoveEnergy(l.dist)
		if wp.TargetID == NoTarget {
			dep = now + holdDelay(*wp, 0, now)
			continue
		}
		visits++
		rec.Append(wp.TargetID, now)
		energyUse += visitEnergy
		dep = now + holdDelay(*wp, dwell, now)
	}
	r.cur, r.from = cur, pos
	m.pos, m.distance, m.energyUse, m.visits = pos, distance, energyUse, visits
	return dep
}

// strider returns the stop at which a mule with energy model strides
// on the route, or nil: the stop of a parked route, whose cycle is one
// phase of one target stop, with no recharge and no hold, and both its
// legs of length 0, for a model with a positive dwell and no energy to
// move 0 m. runCycle strides there, and Bound sizes the stop's log for
// the span the stride leaves.
func (r *Route) strider(model energy.Model) *Waypoint {
	if len(r.phases) != 1 || r.phases[0].stops != 1 || r.legs[0].dist != 0 || r.legs[1].dist != 0 {
		return nil
	}
	wp := r.legs[0].wp
	if wp.Recharge || wp.TargetID == NoTarget || wp.NotBefore > 0 || !(model.Dwell > 0) || model.MoveEnergy(0) != 0 {
		return nil
	}
	return wp
}

// stride is runCycle for a mule at the stop wp of a route that strides
// there (see strider), leaving at dep: the loop's legs all stay at wp
// and arrive as they leave, each leg's hold is exactly the dwell, and
// the recorder appends the whole span of visits at once
// (metrics.Recorder.AppendEvery), each arrival the one before plus the
// dwell, as the loop sums them. It
// books what the loop would: the first leg's distance and move energy,
// zeros that can only turn a sum of -0 into +0, after which the loop's
// later zeros change no bit; then the n visit energies, added as the
// loop adds them one at a time (stats.AddN); and the cursor n legs on.
func (m *Mule) stride(r *Route, wp *Waypoint, dep, t float64) float64 {
	l := &r.legs[r.cur.leg(r.phases)]
	next, n := r.rec.AppendEvery(wp.TargetID, dep+l.dist/m.cfg.Speed, m.cfg.Energy.Dwell, t)
	if n == 0 {
		return dep
	}
	m.pos, r.from = wp.Pos, wp.Pos
	m.distance += l.dist
	m.energyUse += m.cfg.Energy.MoveEnergy(l.dist)
	m.energyUse = stats.AddN(m.energyUse, m.cfg.Energy.VisitEnergy(), n)
	m.visits += n
	// The one-stop phase's cursor moves only its repetition.
	if rp := r.phases[0].repeat; rp > 1 {
		r.cur.rep = (r.cur.rep + n) % rp
	}
	return next
}
