// Dynamic-world replanning: rebuilding a FleetPlan mid-simulation
// after mule attrition or target spawns.
//
// The paper's planners are static — plan once, patrol forever. The
// replan layer reuses exactly the same machinery (group circuits,
// largest-remainder mule allocation, proximity matching, equal-arc
// start points) to recompute a plan for the world as it stands at an
// event boundary: the surviving mules at their current positions and
// the currently-active targets. The "absorb" handoff policy keeps the
// surviving groups' circuits intact where possible and folds each dead
// group's targets, as a block, into the nearest surviving group.
//
// Everything here is deterministic: ties break by index, no random
// source is consulted, and the construction depends only on the
// (scenario, previous groups, active/alive sets, positions) inputs —
// the property the sweep layer's byte-identical-output guarantee
// rests on.
package core

import (
	"fmt"
	"sort"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/walk"
)

// ActiveView builds the reduced scenario seen by a replanner: only the
// active targets (renumbered 0..m-1 in ascending global order) and
// only the alive mules, started from their given current positions.
// active == nil means every target is active; alive == nil means every
// mule is alive; positions == nil means s.MuleStarts. The sink must be
// active. The returned id tables map view target index → global target
// id and view mule index → global mule index.
func ActiveView(s *field.Scenario, active, alive []bool, positions []geom.Point) (*field.Scenario, []int, []int, error) {
	if positions == nil {
		positions = s.MuleStarts
	}
	if len(positions) != s.NumMules() {
		return nil, nil, nil, fmt.Errorf("core: %d positions for %d mules", len(positions), s.NumMules())
	}
	if active != nil && !active[s.SinkID] {
		return nil, nil, nil, fmt.Errorf("core: sink %d cannot be inactive", s.SinkID)
	}
	view := &field.Scenario{
		Field:       s.Field,
		Recharge:    s.Recharge,
		HasRecharge: s.HasRecharge,
	}
	var tids []int
	for i, t := range s.Targets {
		if active != nil && !active[i] {
			continue
		}
		if i == s.SinkID {
			view.SinkID = len(view.Targets)
		}
		view.Targets = append(view.Targets, field.Target{
			ID:     len(view.Targets),
			Pos:    t.Pos,
			Weight: t.Weight,
		})
		tids = append(tids, i)
	}
	var mids []int
	for i := range s.MuleStarts {
		if alive != nil && !alive[i] {
			continue
		}
		view.MuleStarts = append(view.MuleStarts, positions[i])
		mids = append(mids, i)
	}
	if err := view.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return view, tids, mids, nil
}

// remapWalk maps every stop of w through ids.
func remapWalk(w walk.Walk, ids []int) walk.Walk {
	if w.Size() == 0 {
		return w
	}
	seq := make([]int, len(w.Seq))
	for i, v := range w.Seq {
		seq[i] = ids[v]
	}
	return walk.New(seq)
}

// remapInts maps every element of xs through ids.
func remapInts(xs, ids []int) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		out[i] = ids[v]
	}
	return out
}

// remapStops maps the target ids of a waypoint list through ids,
// leaving NoTarget stops untouched.
func remapStops(stops []mule.Waypoint, ids []int) []mule.Waypoint {
	out := make([]mule.Waypoint, len(stops))
	for i, wp := range stops {
		if wp.TargetID != mule.NoTarget {
			wp.TargetID = ids[wp.TargetID]
		}
		out[i] = wp
	}
	return out
}

// RemapPlan returns a copy of plan with every target id — in group
// walks, member lists, and route waypoints — mapped through ids (view
// target index → global target id). Mule indices are untouched, so the
// plan must cover the same fleet in both spaces. It converts a plan
// built on an ActiveView back into global target coordinates, e.g. for
// result reporting when part of the world was dormant at plan time.
func RemapPlan(plan *FleetPlan, ids []int) *FleetPlan {
	out := &FleetPlan{
		Algorithm:   plan.Algorithm,
		Groups:      make([]PatrolGroup, len(plan.Groups)),
		Routes:      make([]MuleRoute, len(plan.Routes)),
		MaxApproach: plan.MaxApproach,
		Rounds:      plan.Rounds,
	}
	for gi, g := range plan.Groups {
		out.Groups[gi] = PatrolGroup{
			Walk:         remapWalk(g.Walk, ids),
			RechargeWalk: remapWalk(g.RechargeWalk, ids),
			Targets:      remapInts(g.Targets, ids),
			Mules:        append([]int(nil), g.Mules...),
			StartPoints:  append([]geom.Point(nil), g.StartPoints...),
			Assignment:   append([]int(nil), g.Assignment...),
		}
	}
	for ri, r := range plan.Routes {
		nr := MuleRoute{
			Approach:  remapStops(r.Approach, ids),
			Cycle:     make([]Phase, len(r.Cycle)),
			ExtraHold: r.ExtraHold,
		}
		for pi, ph := range r.Cycle {
			nr.Cycle[pi] = Phase{Stops: remapStops(ph.Stops, ids), Repeat: ph.Repeat}
		}
		out.Routes[ri] = nr
	}
	return out
}

// ReplanConfig parameterizes the mid-run replanner. The zero value —
// hull-insertion circuits, no 2-opt, the energy model's default
// dwell — is the deterministic default the patrol layer uses.
type ReplanConfig struct {
	// Heuristic builds the circuit of any group whose target set
	// changed (absorbed a dead group's block or gained a spawn).
	Heuristic TourHeuristic
	// Improve applies 2-opt to rebuilt circuits.
	Improve bool
	// Dwell feeds the phase-equalizing holds (0 = default dwell,
	// NoDwell = none), matching the Planner convention.
	Dwell float64
}

// Replan is the output of AbsorbReplan: a fresh plan expressed over
// the reduced view (so FleetPlan.Validate holds against View), plus
// the id tables and the group bookkeeping remapped to global ids.
type Replan struct {
	// View is the reduced scenario the plan was computed on: alive
	// mules at their event-time positions, active targets renumbered.
	View *field.Scenario
	// Plan validates against View. Plan.Routes is indexed by view mule
	// index; map through MuleIDs to reach global mules and remap route
	// target ids through TargetIDs before installing on a live fleet.
	Plan *FleetPlan
	// TargetIDs maps view target index → global target id.
	TargetIDs []int
	// MuleIDs maps view mule index → global mule index.
	MuleIDs []int
	// Groups is Plan.Groups remapped to global target ids and global
	// mule indices, for post-event bookkeeping and later replans.
	Groups []PatrolGroup
}

// AbsorbReplan recomputes a fleet plan after mule deaths and/or target
// spawns under the nearest-group-absorb handoff policy:
//
//   - groups that kept at least one living mule survive; a dead
//     group's targets are absorbed as a block into the surviving group
//     with the nearest centroid (ties by lower group index);
//   - newly-spawned targets (active but owned by no previous group)
//     individually join the surviving group with the nearest centroid;
//   - groups whose target set changed get their circuit rebuilt with
//     cfg.Heuristic; untouched groups keep their walk (preserving VIP
//     revisit structure);
//   - all surviving mules are reallocated across the surviving groups
//     by walk length (largest-remainder) and matched to groups by
//     proximity from their current positions, then every group runs
//     the standard equal-arc location initialization.
//
// prev are the groups of the plan being replaced (only Targets, Mules,
// and Walk are consulted); active/alive/positions are indexed by
// global target and mule ids. positions == nil means s.MuleStarts.
func AbsorbReplan(s *field.Scenario, prev []PatrolGroup, active, alive []bool, positions []geom.Point, cfg ReplanConfig) (*Replan, error) {
	if len(prev) == 0 {
		return nil, fmt.Errorf("core: replan with no previous groups")
	}
	view, tids, mids, err := ActiveView(s, active, alive, positions)
	if err != nil {
		return nil, err
	}
	if len(mids) == 0 {
		return nil, fmt.Errorf("core: replan with no surviving mules")
	}
	toLocal := make(map[int]int, len(tids))
	for li, gi := range tids {
		toLocal[gi] = li
	}

	// Surviving groups keep their (active) targets; dead groups become
	// orphan blocks.
	isAlive := func(mi int) bool { return alive == nil || alive[mi] }
	var surv []int
	owner := make(map[int]int, s.NumTargets())
	for gi, g := range prev {
		for _, t := range g.Targets {
			owner[t] = gi
		}
		for _, mi := range g.Mules {
			if isAlive(mi) {
				surv = append(surv, gi)
				break
			}
		}
	}
	if len(surv) == 0 {
		return nil, fmt.Errorf("core: no surviving group")
	}
	survPos := make(map[int]int, len(surv)) // prev group index → surv slot
	members := make([][]int, len(surv))     // local target ids per surviving group
	changed := make([]bool, len(surv))
	for si, gi := range surv {
		survPos[gi] = si
		for _, t := range prev[gi].Targets {
			if li, ok := toLocal[t]; ok {
				members[si] = append(members[si], li)
			}
		}
	}

	// Centroids of the surviving groups' own targets — the absorb
	// proximity reference, computed before any absorption so block
	// destinations are order-independent.
	pts := view.Points()
	centroids := make([]geom.Point, len(surv))
	for si := range surv {
		centroids[si] = centroidOf(pts, members[si])
	}
	nearest := func(p geom.Point) int {
		best, bestD := 0, p.Dist2(centroids[0])
		for si := 1; si < len(centroids); si++ {
			if d := p.Dist2(centroids[si]); d < bestD {
				best, bestD = si, d
			}
		}
		return best
	}

	// Dead groups' targets absorb as a block; spawned targets (active,
	// never owned) join individually.
	for gi, g := range prev {
		if _, ok := survPos[gi]; ok {
			continue
		}
		var block []int
		for _, t := range g.Targets {
			if li, ok := toLocal[t]; ok {
				block = append(block, li)
			}
		}
		if len(block) == 0 {
			continue
		}
		si := nearest(centroidOf(pts, block))
		members[si] = append(members[si], block...)
		changed[si] = true
	}
	for li, gi := range tids {
		if _, owned := owner[gi]; owned {
			continue
		}
		si := nearest(pts[li])
		members[si] = append(members[si], li)
		changed[si] = true
	}

	// Circuits: rebuild where the target set changed, remap otherwise.
	globalToView := make([]int, s.NumTargets())
	for li, t := range tids {
		globalToView[t] = li
	}
	walks := make([]walk.Walk, len(surv))
	for si, gi := range surv {
		sort.Ints(members[si])
		if !changed[si] {
			walks[si] = remapWalk(prev[gi].Walk, globalToView)
			continue
		}
		w, err := Circuit(view, members[si], cfg.Heuristic, cfg.Improve)
		if err != nil {
			return nil, fmt.Errorf("core: replan group %d: %w", gi, err)
		}
		walks[si] = w
	}
	regions, err := staffRegions(view, pts, members, walks, AllocByLength)
	if err != nil {
		return nil, err
	}

	plan, _, err := assembleGroups(view, regions, nil, effectiveDwell(cfg.Dwell))
	if err != nil {
		return nil, err
	}
	plan.Algorithm = "handoff-absorb"
	if err := plan.Validate(view); err != nil {
		return nil, fmt.Errorf("core: replan produced invalid plan: %w", err)
	}

	groups := make([]PatrolGroup, len(plan.Groups))
	for gi, g := range plan.Groups {
		groups[gi] = PatrolGroup{
			Walk:         remapWalk(g.Walk, tids),
			RechargeWalk: remapWalk(g.RechargeWalk, tids),
			Targets:      remapInts(g.Targets, tids),
			Mules:        remapInts(g.Mules, mids),
			StartPoints:  append([]geom.Point(nil), g.StartPoints...),
			Assignment:   append([]int(nil), g.Assignment...),
		}
	}
	return &Replan{View: view, Plan: plan, TargetIDs: tids, MuleIDs: mids, Groups: groups}, nil
}
