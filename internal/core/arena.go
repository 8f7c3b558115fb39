package core

import (
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/walk"
)

// Arena holds the buffers plan assembly carves a plan from: its
// groups, routes, phases and stop lists, start points, assignments,
// arc-offset tables and rotated walks, and the memo's copies of
// circuits and paths. A planner handed an Arena (see MemoPlanner)
// builds its plan there rather than on the heap, so a caller that plans
// run after run, one plan at a time (patrol.Scratch), reuses the same
// memory. Reset starts the next plan over the same buffers: every plan
// carved before is overwritten then, so nothing of it may be kept past
// the next Reset, and nothing a Memo keeps is ever carved here. A
// buffer grows by at least half when a plan outgrows it (see
// slab.take). A nil *Arena allocates everything fresh.
type Arena struct {
	stops  slab[mule.Waypoint]
	points slab[geom.Point]
	ints   slab[int]
	floats slab[float64]
	phases slab[Phase]
	routes slab[MuleRoute]
	groups slab[PatrolGroup]
	plan   FleetPlan
	// pts are the points of ptsOf, the scenario the current plan is
	// built for (see scenarioPoints).
	pts   []geom.Point
	ptsOf *field.Scenario
}

// slab is one of an Arena's buffers: take carves from its chunks in
// order, and reset starts over at the first.
type slab[T any] struct {
	chunks   [][]T
	cur, off int // the chunk take carves from, and how far it has
}

// take returns n zeroed elements carved from s's chunks. A take that
// does not fit the rest of one chunk starts the next; when the chunks
// run out, take adds one as long as n, or as half of all chunks
// together, whichever is longer, so a slab grows by at least half each
// time and never drops a chunk.
func (s *slab[T]) take(n int) []T {
	for s.cur < len(s.chunks) && s.off+n > len(s.chunks[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		room := 0
		for _, c := range s.chunks {
			room += len(c)
		}
		s.chunks = append(s.chunks, make([]T, max(n, room/2)))
	}
	out := s.chunks[s.cur][s.off : s.off+n : s.off+n]
	clear(out)
	s.off += n
	return out
}

// reset starts the next plan at the first chunk.
func (s *slab[T]) reset() { s.cur, s.off = 0, 0 }

// Reset empties a for the next plan, keeping its buffers.
func (a *Arena) Reset() {
	a.stops.reset()
	a.points.reset()
	a.ints.reset()
	a.floats.reset()
	a.phases.reset()
	a.routes.reset()
	a.groups.reset()
	a.plan = FleetPlan{}
	a.ptsOf = nil
}

// waypoints returns n zeroed waypoints.
func (a *Arena) waypoints(n int) []mule.Waypoint {
	if a == nil {
		return make([]mule.Waypoint, n)
	}
	return a.stops.take(n)
}

// geomPoints returns n zeroed points.
func (a *Arena) geomPoints(n int) []geom.Point {
	if a == nil {
		return make([]geom.Point, n)
	}
	return a.points.take(n)
}

// intSlice returns n zeroed ints.
func (a *Arena) intSlice(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.take(n)
}

// floatSlice returns n zeroed floats.
func (a *Arena) floatSlice(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.floats.take(n)
}

// phaseSlice returns n zeroed phases.
func (a *Arena) phaseSlice(n int) []Phase {
	if a == nil {
		return make([]Phase, n)
	}
	return a.phases.take(n)
}

// routeSlice returns n zeroed routes.
func (a *Arena) routeSlice(n int) []MuleRoute {
	if a == nil {
		return make([]MuleRoute, n)
	}
	return a.routes.take(n)
}

// groupSlice returns n zeroed groups.
func (a *Arena) groupSlice(n int) []PatrolGroup {
	if a == nil {
		return make([]PatrolGroup, n)
	}
	return a.groups.take(n)
}

// newPlan returns an empty plan.
func (a *Arena) newPlan() *FleetPlan {
	if a == nil {
		return new(FleetPlan)
	}
	a.plan = FleetPlan{}
	return &a.plan
}

// scenarioPoints returns s.Points(), computed once per plan: the
// scenario may not change before the next Reset.
func (a *Arena) scenarioPoints(s *field.Scenario) []geom.Point {
	if a == nil {
		return s.Points()
	}
	if a.ptsOf != s {
		if cap(a.pts) < len(s.Targets) {
			a.pts = make([]geom.Point, 0, max(len(s.Targets), 2*cap(a.pts)))
		}
		a.pts, a.ptsOf = s.AppendPoints(a.pts[:0]), s
	}
	return a.pts
}

// seqIDs returns 0..n-1, as SeqIDs does.
func (a *Arena) seqIDs(n int) []int {
	out := a.intSlice(n)
	for i := range out {
		out[i] = i
	}
	return out
}

// rotateToNorthmost returns w.RotateToNorthmost(pts), its sequence
// carved from a.
func (a *Arena) rotateToNorthmost(w walk.Walk, pts []geom.Point) walk.Walk {
	n := len(w.Seq)
	if n == 0 {
		return w
	}
	pos := w.NorthmostPos(pts)
	seq := a.intSlice(n)
	copy(seq, w.Seq[pos:])
	copy(seq[n-pos:], w.Seq[:pos])
	return walk.Walk{Seq: seq}
}

// FleetGroup returns the one group of a single-circuit plan: the walk
// w over every target of s, patrolled by every mule.
func (a *Arena) FleetGroup(s *field.Scenario, w walk.Walk) []PatrolGroup {
	g := a.groupSlice(1)
	g[0] = PatrolGroup{Walk: w, Targets: a.seqIDs(s.NumTargets()), Mules: a.seqIDs(s.NumMules())}
	return g
}
