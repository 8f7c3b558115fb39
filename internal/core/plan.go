// Package core implements the paper's contribution: the three Target
// Coverage Tour Patrolling planners.
//
//   - B-TCTP (§II): a common Hamiltonian circuit, an equal-length
//     start-point partition anchored at the most-north target, and a
//     location-initialization step that places exactly one data mule
//     per start point so the fleet patrols with perfectly balanced
//     visiting intervals.
//   - W-TCTP (§III): a Weighted Patrolling Path (WPP) in which each
//     VIP g_i lies on w_i cycles, built by repeatedly breaking an edge
//     and reconnecting both break points to the VIP. Two break-edge
//     policies are provided: Shortest-Length (Exp. 1) and
//     Balancing-Length (Exp. 2). Traversal order at VIPs follows the
//     minimal counterclockwise included-angle patrolling rule (§3.2).
//   - RW-TCTP (§IV): a Weighted Recharge Path (WRP) that inserts the
//     recharge station at the minimum-detour edge (Exp. 3), plus the
//     round budget r of Equ. 4 that alternates r−1 WPP traversals with
//     one WRP traversal so mules recharge before exhausting their
//     batteries.
//
// The partitioned variants C-BTCTP and C-WTCTP run the same path
// construction per region. Every planner, the §V baselines in
// internal/baseline included, is built from the same few steps, each
// written once:
//
//   - Circuit: the Hamiltonian circuit over all targets or a region,
//     holding the only tour-heuristic switch;
//   - the W-TCTP WPP builder, over all targets or a region;
//   - Regions: partition, per-region walks, mule allocation and
//     mule-to-region matching (its allocation and matching tail is
//     shared with AbsorbReplan);
//   - assembleGroups: the equal-arc start points and location
//     initialization per group.
//
// Validation happens once, at the public entries (each Plan, BuildWPP,
// Regions, AbsorbReplan); the private steps assume a valid scenario.
//
// Planners emit a FleetPlan — a purely geometric artifact (walks,
// start points, per-mule routes) that internal/patrol turns into a
// running simulation.
package core

import (
	"fmt"
	"math"

	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/geom/index"
	"tctp/internal/mule"
	"tctp/internal/walk"
)

// NoDwell marks an explicitly zero collection dwell in planner
// configurations: the planners' Dwell fields treat the zero value as
// "use the default" (energy.DefaultDwell), so a literal zero dwell is
// requested with this sentinel instead.
const NoDwell = -1

// effectiveDwell resolves a planner's Dwell field.
func effectiveDwell(d float64) float64 {
	switch {
	case d < 0:
		return 0
	case d == 0:
		return energy.DefaultDwell
	default:
		return d
	}
}

// Planner is the common interface of all patrolling planners (the
// three TCTP variants and the fixed-route baselines).
type Planner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Plan computes the fleet's routes for the scenario.
	Plan(s *field.Scenario) (*FleetPlan, error)
}

// Phase is one stage of a mule's repeating cycle: a stop sequence
// traversed Repeat times before the next phase begins. B-TCTP and
// W-TCTP plans have a single phase; RW-TCTP alternates a WPP phase
// (Repeat = r−1) with a WRP phase (Repeat = 1).
type Phase struct {
	Stops  []mule.Waypoint
	Repeat int
}

// MuleRoute is one mule's assignment: an approach traversed once (the
// location-initialization move to the start point), then the Cycle
// phases looped forever.
type MuleRoute struct {
	Approach []mule.Waypoint
	Cycle    []Phase
	// ExtraHold is an additional wait (seconds) at the start point
	// before patrolling begins. The paper partitions the path into
	// equal LENGTHS; with a nonzero collection dwell the two arcs
	// between consecutive mules can contain different numbers of
	// stops, which would skew the time spacing. Holding each mule by
	// dwell·(k_j − j·S/n) restores exact 1/n time-phase separation —
	// and is identically zero when the dwell is zero, i.e. in the
	// paper's own idealization.
	ExtraHold float64
}

// PatrolGroup is one patrol region of a plan: its own closed walk, the
// start points partitioning that walk, the member targets, and the
// mules assigned to patrol it. Single-circuit planners (B/W/RW-TCTP,
// CHB) emit exactly one group covering every target and every mule —
// the degenerate form — while partitioned planners (C-BTCTP, C-WTCTP,
// the Sweep baseline) emit one group per region. Together a plan's
// groups always partition both the target set and the fleet.
type PatrolGroup struct {
	// Walk is the group's patrolling walk over global target ids (the
	// Hamiltonian circuit, or the WPP with VIP revisits), rotated to
	// begin at the group's most-north target.
	Walk walk.Walk
	// RechargeWalk is the group's WRP for recharge-aware plans; empty
	// otherwise.
	RechargeWalk walk.Walk
	// Targets are the member target ids in ascending order. A target
	// belongs to exactly one group.
	Targets []int
	// Mules are the global indices of the mules patrolling this group,
	// in ascending order. A mule belongs to exactly one group.
	Mules []int
	// StartPoints are the points where the group's mules enter the
	// walk, one per member mule. For planners with location
	// initialization they are the equal-spaced partition points
	// (StartPoints[k] lies k·|walk|/len(Mules) along the walk); for
	// CHB and Sweep they are the nearest-entry points.
	StartPoints []geom.Point
	// Assignment maps member index k (the mule Mules[k]) to its
	// start-point index within StartPoints — a bijection.
	Assignment []int
}

// FleetPlan is a planner's complete output: the patrol groups plus the
// per-mule concrete routes realizing them.
type FleetPlan struct {
	// Algorithm names the planner that produced the plan.
	Algorithm string
	// Groups are the patrol groups. They partition the scenario's
	// targets and mules; single-circuit planners emit exactly one.
	Groups []PatrolGroup
	// Routes holds each mule's concrete route, indexed by mule.
	Routes []MuleRoute
	// MaxApproach is the longest straight-line distance any mule
	// travels to reach its start point; dividing by the mule speed
	// gives the synchronized patrol start time.
	MaxApproach float64
	// Rounds is RW-TCTP's Equ. 4 budget (0 for other planners).
	Rounds int
}

// Walks returns every group's walk in group order.
func (p *FleetPlan) Walks() []walk.Walk {
	out := make([]walk.Walk, len(p.Groups))
	for i := range p.Groups {
		out[i] = p.Groups[i].Walk
	}
	return out
}

// TotalWalkLength returns the summed length of every group's walk —
// for a single-group plan, the master circuit's length.
func (p *FleetPlan) TotalWalkLength(pts []geom.Point) float64 {
	total := 0.0
	for i := range p.Groups {
		total += p.Groups[i].Walk.Length(pts)
	}
	return total
}

// TotalWalkSize returns the summed hop count of every group's walk.
func (p *FleetPlan) TotalWalkSize() int {
	n := 0
	for i := range p.Groups {
		n += p.Groups[i].Walk.Size()
	}
	return n
}

// Validate performs structural checks on the plan against the
// scenario: the groups partition the targets and the fleet, each
// group's start-point assignment is a bijection, and every route is a
// well-formed cycle.
func (p *FleetPlan) Validate(s *field.Scenario) error {
	n := s.NumMules()
	if len(p.Groups) == 0 {
		return fmt.Errorf("core: plan has no patrol groups")
	}
	if len(p.Routes) != n {
		return fmt.Errorf("core: %d routes for %d mules", len(p.Routes), n)
	}

	targetOwner := make([]int, s.NumTargets())
	muleOwner := make([]int, n)
	for i := range targetOwner {
		targetOwner[i] = -1
	}
	for i := range muleOwner {
		muleOwner[i] = -1
	}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Walk.Size() == 0 {
			return fmt.Errorf("core: group %d has an empty walk", gi)
		}
		if len(g.Targets) == 0 {
			return fmt.Errorf("core: group %d has no targets", gi)
		}
		if len(g.Mules) == 0 {
			return fmt.Errorf("core: group %d has no mules", gi)
		}
		for k, t := range g.Targets {
			if t < 0 || t >= s.NumTargets() {
				return fmt.Errorf("core: group %d target %d out of range", gi, t)
			}
			if k > 0 && g.Targets[k-1] >= t {
				return fmt.Errorf("core: group %d targets not strictly ascending", gi)
			}
			if targetOwner[t] != -1 {
				return fmt.Errorf("core: target %d in groups %d and %d", t, targetOwner[t], gi)
			}
			targetOwner[t] = gi
		}
		member := make(map[int]bool, len(g.Targets))
		for _, t := range g.Targets {
			member[t] = true
		}
		for _, v := range g.Walk.Seq {
			if !member[v] {
				return fmt.Errorf("core: group %d walk visits non-member target %d", gi, v)
			}
		}
		for k, m := range g.Mules {
			if m < 0 || m >= n {
				return fmt.Errorf("core: group %d mule %d out of range", gi, m)
			}
			if k > 0 && g.Mules[k-1] >= m {
				return fmt.Errorf("core: group %d mules not strictly ascending", gi)
			}
			if muleOwner[m] != -1 {
				return fmt.Errorf("core: mule %d in groups %d and %d", m, muleOwner[m], gi)
			}
			muleOwner[m] = gi
		}
		ng := len(g.Mules)
		if len(g.StartPoints) != ng {
			return fmt.Errorf("core: group %d has %d start points for %d mules",
				gi, len(g.StartPoints), ng)
		}
		if len(g.Assignment) != ng {
			return fmt.Errorf("core: group %d assignment sized %d, want %d",
				gi, len(g.Assignment), ng)
		}
		seen := make([]bool, ng)
		for k, a := range g.Assignment {
			if a < 0 || a >= ng {
				return fmt.Errorf("core: group %d mule %d assigned to start point %d",
					gi, g.Mules[k], a)
			}
			if seen[a] {
				return fmt.Errorf("core: group %d start point %d assigned twice", gi, a)
			}
			seen[a] = true
		}
	}
	for t, owner := range targetOwner {
		if owner == -1 {
			return fmt.Errorf("core: target %d belongs to no group", t)
		}
	}
	for m, owner := range muleOwner {
		if owner == -1 {
			return fmt.Errorf("core: mule %d belongs to no group", m)
		}
	}

	for i, r := range p.Routes {
		if len(r.Cycle) == 0 {
			return fmt.Errorf("core: mule %d has no cycle", i)
		}
		for j, ph := range r.Cycle {
			if len(ph.Stops) == 0 {
				return fmt.Errorf("core: mule %d phase %d empty", i, j)
			}
			if ph.Repeat < 1 {
				return fmt.Errorf("core: mule %d phase %d repeat %d", i, j, ph.Repeat)
			}
		}
	}
	return nil
}

// assignStartPoints implements the location-initialization conflict
// resolution of §2.2-B: every mule heads for its closest start point;
// when several contend for one, the mule with the LOWEST remaining
// energy keeps it and each higher-energy mule advances to the next
// start point along the path ("the DM with higher remaining energy
// will move to next start point"). The protocol is realized
// deterministically by settling mules in ascending (energy, index)
// order, probing forward cyclically from each mule's nearest start
// point. energies may be nil (all equal, ties broken by index).
func assignStartPoints(muleStarts, startPts []geom.Point, energies []float64) []int {
	n := len(muleStarts)
	if len(startPts) != n {
		panic(fmt.Sprintf("core: %d mules but %d start points", n, len(startPts)))
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Ascending energy, then ascending index: lower energy settles
	// first and therefore never yields its nearest free start point.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			ea, eb := 0.0, 0.0
			if energies != nil {
				ea, eb = energies[a], energies[b]
			}
			if eb < ea || (eb == ea && b < a) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}

	// Above the index threshold the initial nearest-start-point lookup
	// is a grid query; the brute scan's strict < breaks ties by the
	// lower index, which is the grid's tie-break, so both paths pick
	// the same point bit-for-bit. The cyclic probe over taken points is
	// unchanged — it depends on the start-point ring order, not on
	// proximity.
	var g *index.Grid
	if n >= indexThreshold {
		g = index.New(startPts)
	}
	taken := make([]bool, n)
	assign := make([]int, n)
	for _, mi := range order {
		// Nearest start point, ties by lower index.
		var best int
		if g != nil {
			best, _ = g.Nearest(muleStarts[mi])
		} else {
			bestD := math.Inf(1)
			for k, sp := range startPts {
				if d := muleStarts[mi].Dist2(sp); d < bestD {
					best, bestD = k, d
				}
			}
		}
		for taken[best] {
			best = (best + 1) % n
		}
		taken[best] = true
		assign[mi] = best
	}
	return assign
}

// loopFrom builds a mule's repeating stop list: the walk's targets in
// visiting order starting from the first target at arc offset ≥ d
// (wrapping). A target exactly at the start point is visited
// immediately on arrival. offsets must be w.ArcOffsets(pts) — callers
// placing several mules on one walk compute it once and share it. The
// second result is the walk position of the first stop (which RW-TCTP
// needs to locate the recharge insertion point inside each mule's
// rotated loop); the third is the number of stops strictly before arc
// offset d — equal to the first result except when d falls on the
// closing edge, where the loop wraps to position 0 but all len(w.Seq)
// stops lie before d. The phase-equalizing holds need the latter
// count.
func loopFrom(pts []geom.Point, w walk.Walk, offsets []float64, d float64) ([]mule.Waypoint, int, int) {
	n := len(offsets)
	k0 := 0 // first position with offset >= d (within tolerance)
	stopsBefore := n
	for k, off := range offsets {
		if off >= d-geom.Eps {
			k0 = k
			stopsBefore = k
			break
		}
	}
	out := make([]mule.Waypoint, 0, n)
	for i := 0; i < n; i++ {
		k := (k0 + i) % n
		id := w.Seq[k]
		out = append(out, mule.Waypoint{Pos: pts[id], TargetID: id})
	}
	return out, k0, stopsBefore
}

// RouteFromArc builds a single-phase route that approaches the point
// at arc offset d on the walk and then loops the walk's targets from
// there. Baselines without location initialization (CHB entering the
// circuit at the nearest point, Sweep patrolling per-group circuits)
// share this assembly with the TCTP planners.
func RouteFromArc(pts []geom.Point, w walk.Walk, d float64) MuleRoute {
	return RoutesFromArcs(pts, w, []float64{d})[0]
}

// RoutesFromArcs is RouteFromArc for a batch of arc offsets on one
// walk: the arc-offset table and the entry-point polyline are built
// once and shared by every route, instead of once per mule. The routes
// are bit-identical to calling RouteFromArc per offset; CHB assigns a
// whole fleet to its circuit through this path.
func RoutesFromArcs(pts []geom.Point, w walk.Walk, ds []float64) []MuleRoute {
	offsets := w.ArcOffsets(pts)
	entries := w.PointsAt(pts, ds)
	out := make([]MuleRoute, len(ds))
	for i, d := range ds {
		stops, _, _ := loopFrom(pts, w, offsets, d)
		out[i] = MuleRoute{
			Approach: []mule.Waypoint{{Pos: entries[i], TargetID: mule.NoTarget}},
			Cycle:    []Phase{{Stops: stops, Repeat: 1}},
		}
	}
	return out
}

// SeqIDs returns 0..n-1: the member list of a degenerate one-group
// plan (every target, every mule). Baselines building such plans by
// hand (CHB) share it.
func SeqIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// assembleGroups builds the fleet plan for a set of patrol groups by
// applying B-TCTP's §2.2 machinery per group: each group's walk is
// rotated to its most-north target and partitioned into equal-length
// arcs, and the group's mules run the location-initialization
// assignment against those start points. Only each group's Walk,
// Targets and Mules are read. anchors[i] is mule i's loop anchor (the
// walk position of its first stop), which RW-TCTP needs to locate the
// recharge insertion point. energies (nil = all equal) are indexed by
// global mule id; dwell feeds the per-group phase-equalizing holds.
// The scenario must already be valid.
func assembleGroups(s *field.Scenario, groups []PatrolGroup, energies []float64, dwell float64) (*FleetPlan, []int, error) {
	pts := s.Points()
	plan := &FleetPlan{
		Groups: make([]PatrolGroup, len(groups)),
		Routes: make([]MuleRoute, s.NumMules()),
	}
	anchors := make([]int, s.NumMules())
	for gi, g := range groups {
		if len(g.Mules) == 0 {
			return nil, nil, fmt.Errorf("core: group %d (%d targets) has no mules", gi, len(g.Targets))
		}
		w := g.Walk.RotateToNorthmost(pts)
		n := len(g.Mules)
		startPts := w.StartPoints(pts, n)
		muleStarts := make([]geom.Point, n)
		var groupEnergies []float64
		if energies != nil {
			groupEnergies = make([]float64, n)
		}
		for k, mi := range g.Mules {
			muleStarts[k] = s.MuleStarts[mi]
			if energies != nil {
				groupEnergies[k] = energies[mi]
			}
		}
		assign := assignStartPoints(muleStarts, startPts, groupEnergies)

		total := w.Length(pts)
		nStops := float64(w.Size())
		// One arc-offset table serves every mule placed on this walk.
		offsets := w.ArcOffsets(pts)
		holds := make([]float64, n)
		minHold := math.Inf(1)
		for k, mi := range g.Mules {
			spIdx := assign[k]
			sp := startPts[spIdx]
			d := float64(spIdx) * total / float64(n)
			approachDist := s.MuleStarts[mi].Dist(sp)
			if approachDist > plan.MaxApproach {
				plan.MaxApproach = approachDist
			}
			stops, k0, stopsBefore := loopFrom(pts, w, offsets, d)
			anchors[mi] = k0
			// Phase equalization: the mule at start point j has
			// stopsBefore stops before it on the walk; holding
			// dwell·(stopsBefore − j·S/n) makes the time phases exactly
			// j·T/n apart (T = walk time incl. dwells). The common
			// offset is normalized out per group below.
			holds[k] = dwell * (float64(stopsBefore) - float64(spIdx)*nStops/float64(n))
			if holds[k] < minHold {
				minHold = holds[k]
			}
			plan.Routes[mi] = MuleRoute{
				Approach: []mule.Waypoint{{Pos: sp, TargetID: mule.NoTarget}},
				Cycle: []Phase{{
					Stops:  stops,
					Repeat: 1,
				}},
			}
		}
		for k, mi := range g.Mules {
			plan.Routes[mi].ExtraHold = holds[k] - minHold
		}
		plan.Groups[gi] = PatrolGroup{
			Walk:        w,
			Targets:     g.Targets,
			Mules:       g.Mules,
			StartPoints: startPts,
			Assignment:  assign,
		}
	}
	return plan, anchors, nil
}

// assembleFleet builds the degenerate one-group plan for a common
// walk: every target and every mule in a single patrol group. It is
// shared by B-TCTP, W-TCTP, and RW-TCTP; the partitioned planners call
// assembleGroups with the groups Regions returns.
func assembleFleet(s *field.Scenario, w walk.Walk, energies []float64, dwell float64) (*FleetPlan, []int, error) {
	g := PatrolGroup{Walk: w, Targets: SeqIDs(s.NumTargets()), Mules: SeqIDs(s.NumMules())}
	return assembleGroups(s, []PatrolGroup{g}, energies, dwell)
}
