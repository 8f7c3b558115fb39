// Dynamic-world events: the runtime form of a mid-horizon schedule —
// injected mule failures and target spawns — and the handoff policies
// that decide how a plan-based fleet reacts at the event boundary.
//
// The declarative, JSON-round-trippable form lives in
// internal/scenario (which resolves attrition draws against the
// failure stream); this package consumes the resolved schedule. The
// split mirrors scenario.Fleet vs patrol.FleetMember: scenario imports
// patrol, so the runtime types live here.

package patrol

import (
	"fmt"
	"math"
	"sort"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/sim"
	"tctp/internal/xrand"
)

// EventKind discriminates dynamic-world events.
type EventKind int

const (
	// KillMule stops a mule where it stands at the event time — the
	// injected analogue of a battery death (attrition).
	KillMule EventKind = iota
	// SpawnTarget activates a target at the event time; the target is
	// dormant (unplanned, unvisited) before it.
	SpawnTarget
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KillMule:
		return "kill-mule"
	case SpawnTarget:
		return "spawn-target"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one resolved dynamic-world event. Events sharing the same
// time are applied in one batch (kills first bookkeeping-wise, then
// spawns) followed by at most one replan.
type Event struct {
	// Time is the absolute simulation time of the event.
	Time float64
	// Kind selects the event type.
	Kind EventKind
	// Mule is the global mule index (KillMule).
	Mule int
	// Target is the global target id (SpawnTarget).
	Target int
}

// Handoff selects how a plan-based fleet responds to events.
type Handoff int

const (
	// HandoffNone leaves the surviving routes untouched: a dead
	// group's targets go unvisited and spawned targets are never
	// patrolled. It is the degraded baseline the absorb policy is
	// measured against.
	HandoffNone Handoff = iota
	// HandoffAbsorb swaps in a replanned core.FleetPlan at the event
	// boundary: surviving groups absorb dead groups' targets
	// (core.AbsorbReplan) and all surviving mules restart location
	// initialization from their current positions.
	HandoffAbsorb
)

// String returns the canonical policy name.
func (h Handoff) String() string {
	switch h {
	case HandoffNone:
		return "none"
	case HandoffAbsorb:
		return "absorb"
	}
	return fmt.Sprintf("Handoff(%d)", int(h))
}

// HandoffNames lists the accepted policy names.
const HandoffNames = "none, absorb"

// ParseHandoff parses a policy name; the empty string is HandoffNone.
func ParseHandoff(s string) (Handoff, error) {
	switch s {
	case "", "none":
		return HandoffNone, nil
	case "absorb":
		return HandoffAbsorb, nil
	}
	return 0, fmt.Errorf("patrol: unknown handoff policy %q (accepted: %s)", s, HandoffNames)
}

// RandomFailures derives a seeded failure schedule for an n-mule
// fleet: each mule independently dies with probability rate, at a time
// drawn uniformly over [0, horizon). The draw order (one probability
// draw per mule, a time draw only on failure) and the final (time,
// mule) sort are fixed, so a given source state always yields the same
// schedule — the sweep layer's Failures axis is built on this.
func RandomFailures(n int, rate, horizon float64, src *xrand.Source) []Event {
	var out []Event
	for i := 0; i < n; i++ {
		if src.Float64() < rate {
			out = append(out, Event{Time: src.Float64() * horizon, Kind: KillMule, Mule: i})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

// FailureRecord is one injected mule failure that took effect.
type FailureRecord struct {
	// Time is the simulation time of the failure.
	Time float64
	// Mule is the global index of the killed mule.
	Mule int
}

// ReplanRecord is one successful mid-run plan swap.
type ReplanRecord struct {
	// Time is the event-boundary time the new plan took effect.
	Time float64
	// Survivors is the fleet size the new plan covers.
	Survivors int
	// Groups is the new plan's group count.
	Groups int
}

// normalizeEvents validates and time-sorts the schedule and derives
// the initial active-target mask (nil when no target starts dormant).
func normalizeEvents(s *field.Scenario, opts Options) ([]Event, []bool, error) {
	if len(opts.Events) == 0 {
		return nil, nil, nil
	}
	evs := append([]Event(nil), opts.Events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	var active []bool
	for _, ev := range evs {
		if math.IsNaN(ev.Time) || ev.Time < 0 {
			return nil, nil, fmt.Errorf("patrol: event time %v invalid", ev.Time)
		}
		switch ev.Kind {
		case KillMule:
			if ev.Mule < 0 || ev.Mule >= s.NumMules() {
				return nil, nil, fmt.Errorf("patrol: kill-mule event for mule %d of %d", ev.Mule, s.NumMules())
			}
		case SpawnTarget:
			if ev.Target < 0 || ev.Target >= s.NumTargets() {
				return nil, nil, fmt.Errorf("patrol: spawn event for target %d of %d", ev.Target, s.NumTargets())
			}
			if ev.Target == s.SinkID {
				return nil, nil, fmt.Errorf("patrol: target %d is the sink and cannot spawn", ev.Target)
			}
			if active == nil {
				active = make([]bool, s.NumTargets())
				for i := range active {
					active[i] = true
				}
			}
			if !active[ev.Target] {
				return nil, nil, fmt.Errorf("patrol: target %d spawns twice", ev.Target)
			}
			active[ev.Target] = false
		default:
			return nil, nil, fmt.Errorf("patrol: unknown event kind %v", ev.Kind)
		}
	}
	return evs, active, nil
}

// replanner owns one run's dynamic-world state: which mules are alive
// (injected kills and emergent battery deaths alike), which targets
// are active, and the group structure of the currently-installed plan.
// It is driven from scheduled event batches inside the single-threaded
// simulation loop.
type replanner struct {
	s      *field.Scenario
	opts   Options
	eng    *sim.Engine
	mules  []*mule.Mule
	alive  []bool
	active []bool // nil = all active
	// groups mirrors the installed plan's groups in global ids; nil
	// for online algorithms (which never replan).
	groups []core.PatrolGroup

	failures []FailureRecord
	replans  []ReplanRecord
	err      error
}

// apply executes one batch of same-time events, then replans once if
// anything changed and the policy asks for it.
func (r *replanner) apply(evs []Event) {
	if r.err != nil {
		return
	}
	now := r.eng.Now()
	changed := false
	for _, ev := range evs {
		switch ev.Kind {
		case KillMule:
			if r.alive[ev.Mule] {
				// Kill fires OnDeath, whose wrapper flips alive[ev.Mule].
				r.mules[ev.Mule].Kill()
				r.failures = append(r.failures, FailureRecord{Time: now, Mule: ev.Mule})
				changed = true
			}
		case SpawnTarget:
			if !r.active[ev.Target] {
				r.active[ev.Target] = true
				changed = true
			}
		}
	}
	if !changed || r.opts.Handoff != HandoffAbsorb || r.groups == nil {
		return
	}
	r.replan(now)
}

// replan swaps the fleet plan at the event boundary: absorb-replan
// over the survivors at their interpolated current positions, then
// reroute every surviving mule onto its new route with a synchronized
// (unless disabled) patrol restart.
func (r *replanner) replan(now float64) {
	anyAlive := false
	for _, a := range r.alive {
		if a {
			anyAlive = true
			break
		}
	}
	if !anyAlive {
		return
	}
	positions := make([]geom.Point, len(r.mules))
	for i, m := range r.mules {
		positions[i] = m.PosNow()
	}
	dwell := r.opts.Energy.Dwell
	if dwell == 0 {
		dwell = core.NoDwell
	}
	rep, err := core.AbsorbReplan(r.s, r.groups, r.active, r.alive, positions, core.ReplanConfig{Dwell: dwell})
	if err != nil {
		r.err = fmt.Errorf("patrol: replan at t=%v: %w", now, err)
		return
	}
	hold := now
	if !r.opts.NoSynchronizedStart {
		slowest := 0.0
		for _, gi := range rep.MuleIDs {
			if sp := r.opts.muleSpeed(gi); slowest == 0 || sp < slowest {
				slowest = sp
			}
		}
		hold = now + rep.Plan.MaxApproach/slowest
	}
	global := core.RemapPlan(rep.Plan, rep.TargetIDs)
	routers := newPlanRouters(global.Routes, hold)
	for li, gi := range rep.MuleIDs {
		r.mules[gi].Reroute(&routers[li])
	}
	r.groups = rep.Groups
	r.replans = append(r.replans, ReplanRecord{Time: now, Survivors: len(rep.MuleIDs), Groups: len(rep.Groups)})
}

// schedule installs one engine event per distinct event time; events
// beyond the horizon never fire.
func (r *replanner) schedule(evs []Event) {
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].Time == evs[i].Time {
			j++
		}
		grp := evs[i:j]
		if grp[0].Time <= r.opts.Horizon {
			r.eng.Schedule(grp[0].Time, func() { r.apply(grp) })
		}
		i = j
	}
}

// Plannable reports whether the algorithm produces a core.FleetPlan.
// Online policies return false; they cannot patrol dormant targets and
// never replan. The sweep build layer uses it to skip spawn-bearing
// cells for online algorithms.
func Plannable(a Algorithm) bool {
	_, ok := a.(plannedAlg)
	return ok
}
