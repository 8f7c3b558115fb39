// Package baseline reimplements the three comparison mechanisms of the
// paper's §V so the evaluation can be regenerated end to end:
//
//   - Random — every data mule repeatedly picks a uniformly random not
//     yet self-visited target and travels straight to it; when it has
//     seen every target the epoch resets. (An online policy: it emits
//     a mule.Router rather than a fixed plan.)
//   - Sweep (after Cheng et al., IPDPS'08) — the targets are
//     partitioned into one group per mule and each mule patrols a
//     Hamiltonian circuit over its own group. Group path lengths
//     differ, which is exactly why its DCDT oscillates in Fig. 7.
//     The groups come from core.Regions, the C-planners' region
//     pipeline, with k = fleet size.
//   - CHB (after Wu et al., MDM'09) — all mules follow one
//     convex-hull-based Hamiltonian circuit (core.Circuit, as in
//     B-TCTP), but without B-TCTP's location initialization: each
//     mule enters the circuit at the point nearest its initial
//     position, so the inter-mule spacing is arbitrary and the
//     visiting intervals are unbalanced.
package baseline

import (
	"fmt"
	"slices"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/mule"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

// CHB is the convex-hull-based baseline planner.
type CHB struct{}

// Name implements core.Planner.
func (*CHB) Name() string { return "CHB" }

// Plan implements core.Planner. The circuit construction is identical
// to B-TCTP's; the difference is the missing location initialization:
// each mule enters the circuit where it happens to be closest, keeping
// whatever spacing chance provides.
func (c *CHB) Plan(s *field.Scenario) (*core.FleetPlan, error) { return c.PlanMemo(s, nil, nil) }

// PlanMemo implements core.MemoPlanner: Plan with the circuit from m,
// in a. CHB is a one-group plan: the whole fleet shares the circuit,
// rotated to its most-north target, but the start points are each
// mule's nearest entry rather than the equal-length partition.
func (c *CHB) PlanMemo(s *field.Scenario, m *core.Memo, a *core.Arena) (*core.FleetPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, err := m.Circuit(s, nil, core.HullInsertion, false, a)
	if err != nil {
		return nil, fmt.Errorf("baseline: CHB circuit: %w", err)
	}
	plan := core.EnterNearest(s, a.FleetGroup(s, w), true, a)
	plan.Algorithm = c.Name()
	return plan, nil
}

// Sweep is the group-patrolling baseline planner.
type Sweep struct {
	// Partition selects the grouping method (default k-means).
	Partition core.PartitionMethod
	// Rand seeds k-means; nil uses a fixed seed so planning is
	// deterministic.
	Rand *xrand.Source
}

// Name implements core.Planner.
func (sw *Sweep) Name() string { return "Sweep" }

// Plan implements core.Planner: core.Regions with one region per mule
// (allocated by count, so each region gets exactly one mule, matched by
// centroid distance with the closest mules settling first, ties by
// index), one hull-insertion circuit per region, and each mule entering
// its circuit at the point nearest its start.
func (sw *Sweep) Plan(s *field.Scenario) (*core.FleetPlan, error) { return sw.PlanMemo(s, nil, nil) }

// PlanMemo implements core.MemoPlanner: Plan in a. Its regions depend
// on the fleet, so m remembers none of them.
func (sw *Sweep) PlanMemo(s *field.Scenario, _ *core.Memo, a *core.Arena) (*core.FleetPlan, error) {
	n := s.NumMules()
	if n > s.NumTargets() {
		return nil, fmt.Errorf("baseline: Sweep needs at least one target per mule (%d mules, %d targets)",
			n, s.NumTargets())
	}
	cfg := core.PartitionConfig{Method: sw.Partition, K: n, Alloc: core.AllocByCount}
	groups, err := core.Regions(s, cfg, sw.Rand, func(members []int) (walk.Walk, error) {
		return core.Circuit(s, members, core.HullInsertion, false)
	})
	if err != nil {
		return nil, err
	}
	plan := core.EnterNearest(s, groups, false, a)
	plan.Algorithm = sw.Name()
	return plan, nil
}

// Random is the online random-destination baseline. It does not
// implement core.Planner — it has no fixed route; NewRouters yields
// one independent router per mule.
type Random struct{}

// Name identifies the algorithm.
func (*Random) Name() string { return "Random" }

// NewRouters returns one router per mule, each with an independent
// random stream split from src.
func (r *Random) NewRouters(s *field.Scenario, src *xrand.Source) []mule.Router {
	routers := make([]mule.Router, s.NumMules())
	for i := range routers {
		routers[i] = &randomRouter{s: s, src: src.Split()}
	}
	return routers
}

// RoutersIndependent declares patrol.IndependentRouters: each router
// reads only its own mule's position and the scenario's targets, draws
// only from its own stream and only in Next, and hands out only
// targets, so patrol.Run may run Random's mules ahead of the engine.
func (*Random) RoutersIndependent() {}

// randomRouter implements the Random policy for one mule: visit every
// target once per epoch in uniformly random order.
type randomRouter struct {
	s         *field.Scenario
	src       *xrand.Source
	remaining []int
}

// Next implements mule.Router.
func (r *randomRouter) Next(m *mule.Mule) (mule.Waypoint, float64, bool) {
	if len(r.remaining) == 0 {
		// A new epoch refills the same array.
		r.remaining = slices.Grow(r.remaining, r.s.NumTargets())[:r.s.NumTargets()]
		for i := range r.remaining {
			r.remaining[i] = i
		}
	}
	k := r.src.Intn(len(r.remaining))
	id := r.remaining[k]
	r.remaining[k] = r.remaining[len(r.remaining)-1]
	r.remaining = r.remaining[:len(r.remaining)-1]
	pos := r.s.Targets[id].Pos
	return mule.Waypoint{Pos: pos, TargetID: id}, m.Pos().Dist(pos), true
}
