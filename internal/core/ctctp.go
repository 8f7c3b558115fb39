package core

// The partitioned (clustered) TCTP planner family: C-BTCTP and
// C-WTCTP. Where the paper's planners share one global Hamiltonian
// circuit among the whole fleet, the C-variants first partition the
// target set into k regions (k-means or angular sectors, independent
// of the fleet size), build one circuit — or one WPP — per region, and
// then run B-TCTP's start-point partition and location initialization
// machinery per region. Regions is that pipeline up to the per-region
// placement; the Sweep baseline calls it too. The motivation is the
// paper's own clustered deployments: when targets sit in disconnected
// discs, a global tour wastes travel crossing the gaps every cycle,
// while per-region tours keep each mule inside one disc (the
// partitioned strategies of Scherer & Rinner, arXiv:1906.11539, and
// the facility-location mule coordination of Hermelin et al.,
// arXiv:1702.04142).

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"tctp/internal/cluster"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

// PartitionMethod selects how the C-planners split targets into
// regions.
type PartitionMethod int

// Supported partition methods.
const (
	// KMeansMethod groups targets with Lloyd's algorithm (k-means++
	// seeding, deterministic per source).
	KMeansMethod PartitionMethod = iota
	// SectorsMethod splits targets into angular sectors around the
	// centroid (fully deterministic).
	SectorsMethod
)

// String implements fmt.Stringer.
func (m PartitionMethod) String() string {
	switch m {
	case KMeansMethod:
		return "kmeans"
	case SectorsMethod:
		return "sectors"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParsePartitionMethod is the inverse of String.
func ParsePartitionMethod(s string) (PartitionMethod, error) {
	switch s {
	case "kmeans":
		return KMeansMethod, nil
	case "sectors":
		return SectorsMethod, nil
	default:
		return 0, fmt.Errorf("core: unknown partition method %q (valid: kmeans, sectors)", s)
	}
}

// AllocPolicy selects how the fleet is divided among the regions.
type AllocPolicy int

// Supported allocation policies.
const (
	// AllocByLength gives each region one mule plus a share of the
	// remaining fleet proportional to its tour length — the region
	// that takes longest to patrol gets the most mules, equalizing
	// per-region visiting intervals.
	AllocByLength AllocPolicy = iota
	// AllocByCount shares the remaining fleet proportionally to the
	// region's target count instead.
	AllocByCount
)

// String implements fmt.Stringer.
func (a AllocPolicy) String() string {
	switch a {
	case AllocByLength:
		return "length"
	case AllocByCount:
		return "count"
	default:
		return fmt.Sprintf("alloc(%d)", int(a))
	}
}

// ParseAllocPolicy is the inverse of String.
func ParseAllocPolicy(s string) (AllocPolicy, error) {
	switch s {
	case "length":
		return AllocByLength, nil
	case "count":
		return AllocByCount, nil
	default:
		return 0, fmt.Errorf("core: unknown allocation policy %q (valid: length, count)", s)
	}
}

// PartitionConfig parameterizes the partitioned planner family: the
// partition method, the region count k, and the mule-allocation
// policy. K is independent of the fleet size, but the fleet must carry
// at least one mule per region.
type PartitionConfig struct {
	Method PartitionMethod
	K      int
	Alloc  AllocPolicy
}

// String renders the canonical "method:k[:alloc]" form (the alloc
// suffix only when it differs from the default).
func (c PartitionConfig) String() string {
	s := c.Method.String() + ":" + strconv.Itoa(c.K)
	if c.Alloc != AllocByLength {
		s += ":" + c.Alloc.String()
	}
	return s
}

// Partitionable is implemented by planners that have a partitioned
// per-region variant. Partitioned returns the C-planner that applies
// this planner's path construction per region; src seeds the
// partition's randomness (k-means) and may be nil for a fixed seed.
type Partitionable interface {
	Planner
	Partitioned(cfg PartitionConfig, src *xrand.Source) Planner
}

// Partitioned implements Partitionable: C-BTCTP with this planner's
// circuit knobs.
func (b *BTCTP) Partitioned(cfg PartitionConfig, src *xrand.Source) Planner {
	return &CBTCTP{BTCTP: *b, Config: cfg, Rand: src}
}

// Partitioned implements Partitionable: C-WTCTP with this planner's
// WPP knobs.
func (wt *WTCTP) Partitioned(cfg PartitionConfig, src *xrand.Source) Planner {
	cp := *wt
	if src != nil {
		cp.Rand = src
	}
	return &CWTCTP{WTCTP: cp, Config: cfg}
}

// CBTCTP is the partitioned B-TCTP planner: k independent regions,
// each with its own Hamiltonian circuit, start-point partition, and
// location initialization.
type CBTCTP struct {
	// BTCTP carries the per-region circuit knobs (heuristic, 2-opt,
	// energies, dwell).
	BTCTP
	// Config is the partition (method, k, allocation policy).
	Config PartitionConfig
	// Rand seeds k-means; nil uses a fixed seed so planning is
	// deterministic.
	Rand *xrand.Source
}

// Name implements Planner.
func (c *CBTCTP) Name() string { return "C-BTCTP(" + c.Config.String() + ")" }

// Plan implements Planner.
func (c *CBTCTP) Plan(s *field.Scenario) (*FleetPlan, error) { return c.PlanMemo(s, nil, nil) }

// PlanMemo implements MemoPlanner: Plan with the region circuits from
// m, in a.
func (c *CBTCTP) PlanMemo(s *field.Scenario, m *Memo, a *Arena) (*FleetPlan, error) {
	groups, err := Regions(s, c.Config, c.Rand, func(members []int) (walk.Walk, error) {
		return m.Circuit(s, members, c.Heuristic, c.Improve, a)
	})
	if err != nil {
		return nil, err
	}
	plan, _, err := a.assembleGroups(s, groups, c.Energies, effectiveDwell(c.Dwell))
	if err != nil {
		return nil, err
	}
	plan.Algorithm = c.Name()
	return plan, nil
}

// CWTCTP is the partitioned W-TCTP planner: each region gets its own
// Weighted Patrolling Path in which the region's VIPs occur as often
// as their weight, traversed under the §3.2 angle rule.
type CWTCTP struct {
	// WTCTP carries the per-region WPP knobs (policy, heuristic,
	// traversal, energies, dwell, randomness).
	WTCTP
	// Config is the partition (method, k, allocation policy).
	Config PartitionConfig
}

// Name implements Planner.
func (c *CWTCTP) Name() string {
	return "C-WTCTP(" + c.Policy.String() + "," + c.Config.String() + ")"
}

// Plan implements Planner. One random source serves every region's
// RandomBreak choices, in region order.
func (c *CWTCTP) Plan(s *field.Scenario) (*FleetPlan, error) { return c.PlanMemo(s, nil, nil) }

// PlanMemo implements MemoPlanner: Plan with the region circuits from
// m, in a.
func (c *CWTCTP) PlanMemo(s *field.Scenario, m *Memo, a *Arena) (*FleetPlan, error) {
	rnd := c.Rand
	if rnd == nil {
		rnd = xrand.New(0)
	}
	groups, err := Regions(s, c.Config, c.Rand, func(members []int) (walk.Walk, error) {
		return c.wpp(s, members, rnd, m)
	})
	if err != nil {
		return nil, err
	}
	plan, _, err := a.assembleGroups(s, groups, c.Energies, effectiveDwell(c.Dwell))
	if err != nil {
		return nil, err
	}
	plan.Algorithm = c.Name()
	return plan, nil
}

// Regions validates the scenario and splits it into cfg.K patrol
// regions: it partitions the targets with cfg.Method (src seeds
// k-means; nil means a fixed seed), builds each region's walk with
// build (given the region's member target ids, ascending), and staffs
// the regions with the fleet under cfg.Alloc. The groups carry Walk,
// Targets and Mules; start points and assignments are left to the
// caller. C-BTCTP and C-WTCTP place each region's mules by location
// initialization; Sweep (K = fleet size) gives each mule its own region
// and lets it enter at the nearest point.
func Regions(s *field.Scenario, cfg PartitionConfig, src *xrand.Source, build func(members []int) (walk.Walk, error)) ([]PatrolGroup, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	k := cfg.K
	if k < 1 {
		return nil, fmt.Errorf("core: partition needs k >= 1, got %d", k)
	}
	if k > s.NumTargets() {
		return nil, fmt.Errorf("core: partition k=%d exceeds %d targets", k, s.NumTargets())
	}
	if n := s.NumMules(); n < k {
		return nil, fmt.Errorf("core: %d regions need at least %d mules, fleet has %d", k, k, n)
	}

	pts := s.Points()
	var assign []int
	switch cfg.Method {
	case KMeansMethod:
		if src == nil {
			src = xrand.New(1)
		}
		assign = cluster.KMeans(pts, k, src, 100)
	case SectorsMethod:
		assign = cluster.Sectors(pts, k)
	default:
		return nil, fmt.Errorf("core: unknown partition method %v", cfg.Method)
	}
	members := cluster.Groups(assign, k)
	walks := make([]walk.Walk, k)
	for g, m := range members {
		w, err := build(m)
		if err != nil {
			return nil, fmt.Errorf("core: region %d (%d targets): %w", g, len(m), err)
		}
		walks[g] = w
	}
	return staffRegions(s, pts, members, walks, cfg.Alloc)
}

// staffRegions divides the fleet among the regions (member target ids
// and walk per region) under alloc and matches the physical mules to
// regions by proximity of their starts to the region centroids. Regions
// and AbsorbReplan share it.
func staffRegions(s *field.Scenario, pts []geom.Point, members [][]int, walks []walk.Walk, alloc AllocPolicy) ([]PatrolGroup, error) {
	weights := make([]float64, len(members))
	centroids := make([]geom.Point, len(members))
	for g, m := range members {
		centroids[g] = centroidOf(pts, m)
		switch alloc {
		case AllocByLength:
			weights[g] = walks[g].Length(pts)
		case AllocByCount:
			weights[g] = float64(len(m))
		default:
			return nil, fmt.Errorf("core: unknown allocation policy %v", alloc)
		}
	}
	counts := allocateMules(s.NumMules(), weights)
	muleGroup := MatchMulesToGroups(s.MuleStarts, centroids, counts)

	groups := make([]PatrolGroup, len(members))
	for g := range groups {
		groups[g] = PatrolGroup{Walk: walks[g], Targets: members[g]}
	}
	for mi, g := range muleGroup {
		groups[g].Mules = append(groups[g].Mules, mi)
	}
	return groups, nil
}

// centroidOf is geom.Centroid of the points with the given ids, summed
// in the same order (so bit-identical) without copying them out.
func centroidOf(pts []geom.Point, ids []int) geom.Point {
	if len(ids) == 0 {
		panic("core: centroid of an empty region")
	}
	var sx, sy float64
	for _, id := range ids {
		sx += pts[id].X
		sy += pts[id].Y
	}
	n := float64(len(ids))
	return geom.Point{X: sx / n, Y: sy / n}
}

// allocateMules divides n mules among regions with the given weights:
// every region receives one mule, and the remaining n−k are shared
// proportionally to weight by the largest-remainder method (ties by
// region index), so the allocation is deterministic and every region
// can run its own location initialization.
func allocateMules(n int, weights []float64) []int {
	k := len(weights)
	counts := make([]int, k)
	for g := range counts {
		counts[g] = 1
	}
	extra := n - k
	if extra == 0 {
		return counts
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	rem := make([]float64, k)
	given := 0
	for g, w := range weights {
		q := 0.0
		if total > 0 {
			q = float64(extra) * w / total
		} else {
			q = float64(extra) / float64(k)
		}
		whole := int(math.Floor(q))
		counts[g] += whole
		given += whole
		rem[g] = q - float64(whole)
	}
	// Hand the leftover seats to the largest remainders, ties by
	// region index.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < extra-given; i++ {
		counts[order[i%k]]++
	}
	return counts
}

// MatchMulesToGroups assigns each mule to a group with free capacity.
// Mules settle in ascending (distance to their nearest centroid, mule
// index) order — the same conflict-resolution shape as
// assignStartPoints — and each settled mule takes the nearest group
// with remaining capacity. The matching therefore does not depend on
// the mules' enumeration order beyond exact-distance ties, which break
// by index. capacity[g] is how many mules group g accepts; capacities
// must sum to len(starts). The result maps mule index to group index.
//
// Both passes are linear scans over the centroids: at the fleet sizes
// the planners see (up to 64 mules), a scan beats building a spatial
// grid.
func MatchMulesToGroups(starts, centroids []geom.Point, capacity []int) []int {
	n := len(starts)
	totalCap := 0
	for _, c := range capacity {
		totalCap += c
	}
	if totalCap != n {
		panic(fmt.Sprintf("core: %d mules but capacities sum to %d", n, totalCap))
	}
	// Static settle key: each mule's distance to its nearest centroid.
	nearest := make([]float64, n)
	for i, p := range starts {
		best := math.Inf(1)
		for _, c := range centroids {
			if d := p.Dist2(c); d < best {
				best = d
			}
		}
		nearest[i] = best
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if nearest[ia] != nearest[ib] {
			return nearest[ia] < nearest[ib]
		}
		return ia < ib
	})

	free := make([]int, len(capacity))
	copy(free, capacity)
	out := make([]int, n)
	for _, mi := range order {
		best, bestD := -1, 0.0
		for g, c := range centroids {
			if free[g] == 0 {
				continue
			}
			d := starts[mi].Dist2(c)
			if best == -1 || d < bestD {
				best, bestD = g, d
			}
		}
		free[best]--
		out[mi] = best
	}
	return out
}
