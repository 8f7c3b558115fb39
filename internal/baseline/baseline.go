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
//   - CHB (after Wu et al., MDM'09) — all mules follow one
//     convex-hull-based Hamiltonian circuit, but without B-TCTP's
//     location initialization: each mule enters the circuit at the
//     point nearest its initial position, so the inter-mule spacing is
//     arbitrary and the visiting intervals are unbalanced.
package baseline

import (
	"fmt"

	"tctp/internal/cluster"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/tour"
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
func (c *CHB) Plan(s *field.Scenario) (*core.FleetPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pts := s.Points()
	t := tour.EnsureCCW(pts, tour.ConvexHullInsertion(pts))
	if err := tour.Validate(t, len(pts)); err != nil {
		return nil, fmt.Errorf("baseline: CHB circuit: %w", err)
	}
	w := walk.New(t).RotateToNorthmost(pts)

	n := s.NumMules()
	// CHB is a one-group plan: the whole fleet shares the circuit, but
	// the start points are each mule's nearest entry rather than the
	// equal-length partition.
	group := core.PatrolGroup{
		Walk:        w,
		Targets:     core.SeqIDs(s.NumTargets()),
		Mules:       core.SeqIDs(n),
		StartPoints: make([]geom.Point, n),
		Assignment:  make([]int, n),
	}
	plan := &core.FleetPlan{Algorithm: c.Name()}
	// The whole fleet shares one circuit, so the entry offsets and the
	// routes are computed in one polyline pass each rather than per
	// mule.
	ds := w.NearestOffsets(pts, s.MuleStarts)
	plan.Routes = core.RoutesFromArcs(pts, w, ds)
	for i, start := range s.MuleStarts {
		entry := plan.Routes[i].Approach[0].Pos
		group.StartPoints[i] = entry
		group.Assignment[i] = i
		if dist := start.Dist(entry); dist > plan.MaxApproach {
			plan.MaxApproach = dist
		}
	}
	plan.Groups = []core.PatrolGroup{group}
	return plan, nil
}

// Partition selects how Sweep groups targets.
type Partition int

// Supported partitions.
const (
	// KMeansPartition groups targets with Lloyd's algorithm.
	KMeansPartition Partition = iota
	// SectorPartition splits targets into angular sectors around the
	// centroid.
	SectorPartition
)

// String implements fmt.Stringer.
func (p Partition) String() string {
	switch p {
	case KMeansPartition:
		return "kmeans"
	case SectorPartition:
		return "sectors"
	default:
		return fmt.Sprintf("partition(%d)", int(p))
	}
}

// Sweep is the group-patrolling baseline planner.
type Sweep struct {
	// Partition selects the grouping method (default k-means).
	Partition Partition
	// Rand seeds k-means; nil uses a fixed seed so planning is
	// deterministic.
	Rand *xrand.Source
}

// Name implements core.Planner.
func (sw *Sweep) Name() string { return "Sweep" }

// Plan implements core.Planner: one target group per mule, one circuit
// per group, each mule assigned to an exclusive group by centroid
// distance (closest mules settle first, ties by index). The plan is
// expressed in the group model: one PatrolGroup per region, each
// patrolled by exactly one mule.
func (sw *Sweep) Plan(s *field.Scenario) (*core.FleetPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pts := s.Points()
	n := s.NumMules()
	if n > s.NumTargets() {
		return nil, fmt.Errorf("baseline: Sweep needs at least one target per mule (%d mules, %d targets)",
			n, s.NumTargets())
	}

	rnd := sw.Rand
	if rnd == nil {
		rnd = xrand.New(1)
	}
	var assign []int
	switch sw.Partition {
	case KMeansPartition:
		assign = cluster.KMeans(pts, n, rnd, 100)
	case SectorPartition:
		assign = cluster.Sectors(pts, n)
	default:
		return nil, fmt.Errorf("baseline: unknown partition %v", sw.Partition)
	}
	groups := cluster.Groups(assign, n)

	// Build one circuit (as a walk over global target ids) per group.
	groupWalks := make([]walk.Walk, n)
	centroids := make([]geom.Point, n)
	for g, members := range groups {
		groupPts := make([]geom.Point, len(members))
		for i, id := range members {
			groupPts[i] = pts[id]
		}
		centroids[g] = geom.Centroid(groupPts)
		t := tour.EnsureCCW(groupPts, tour.ConvexHullInsertion(groupPts))
		seq := make([]int, len(t))
		for i, local := range t {
			seq[i] = members[local]
		}
		groupWalks[g] = walk.New(seq)
	}

	// Unique mule→group matching by centroid distance. Mules settle in
	// ascending (distance, index) order — like the location
	// initialization's conflict resolution — so the matching does not
	// depend on the mules' enumeration order beyond exact ties.
	capacity := make([]int, n)
	for g := range capacity {
		capacity[g] = 1
	}
	muleGroup := core.MatchMulesToGroups(s.MuleStarts, centroids, capacity)

	plan := &core.FleetPlan{
		Algorithm: sw.Name(),
		Groups:    make([]core.PatrolGroup, n),
		Routes:    make([]core.MuleRoute, n),
	}
	for g := range plan.Groups {
		plan.Groups[g] = core.PatrolGroup{
			Walk:    groupWalks[g],
			Targets: groups[g],
		}
	}
	for i, g := range muleGroup {
		w := groupWalks[g]
		d := w.NearestOffset(pts, s.MuleStarts[i])
		plan.Routes[i] = core.RouteFromArc(pts, w, d)
		entry := plan.Routes[i].Approach[0].Pos
		plan.Groups[g].Mules = []int{i}
		plan.Groups[g].StartPoints = []geom.Point{entry}
		plan.Groups[g].Assignment = []int{0}
		if dist := s.MuleStarts[i].Dist(entry); dist > plan.MaxApproach {
			plan.MaxApproach = dist
		}
	}
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
		r.remaining = make([]int, r.s.NumTargets())
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
