package core

import (
	"fmt"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/tour"
	"tctp/internal/walk"
)

// TourHeuristic selects the Hamiltonian-circuit construction used in
// the path-construction phase. The paper uses the convex-hull-based
// construction of ref. [5]; the alternatives exist for the A1
// ablation.
type TourHeuristic int

// Supported constructions.
const (
	// HullInsertion is the paper's construction: convex-hull skeleton
	// plus cheapest insertion.
	HullInsertion TourHeuristic = iota
	// NearestNeighborTour chains closest unvisited targets.
	NearestNeighborTour
	// GreedyEdgeTour accepts shortest edges first.
	GreedyEdgeTour
)

// String implements fmt.Stringer.
func (h TourHeuristic) String() string {
	switch h {
	case HullInsertion:
		return "hull-insertion"
	case NearestNeighborTour:
		return "nearest-neighbor"
	case GreedyEdgeTour:
		return "greedy-edge"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// BTCTP is the Basic Target-Coverage Tour Patrolling planner (§II).
// The zero value is the paper's configuration.
type BTCTP struct {
	// Heuristic selects the circuit construction (default: the
	// paper's hull-insertion).
	Heuristic TourHeuristic
	// Improve applies 2-opt to the constructed circuit before
	// partitioning (off in the paper; an ablation knob here).
	Improve bool
	// Energies optionally carries each mule's remaining energy for
	// the location-initialization tie-break; nil means all equal.
	Energies []float64
	// Dwell is the per-collection pause the fleet will use (seconds);
	// it feeds the phase-equalizing start holds. Zero selects the
	// default (energy.DefaultDwell); use NoDwell for a literal zero.
	Dwell float64
}

// Name implements Planner.
func (b *BTCTP) Name() string { return "B-TCTP" }

// Plan implements Planner. All mules share one Hamiltonian circuit
// over every target (the sink included, §2.1); the circuit is
// partitioned into equal-length arcs from the most-north target, and
// the location-initialization assignment sends exactly one mule to
// each arc endpoint.
func (b *BTCTP) Plan(s *field.Scenario) (*FleetPlan, error) { return b.PlanMemo(s, nil) }

// PlanMemo implements MemoPlanner: Plan with the circuit from m.
func (b *BTCTP) PlanMemo(s *field.Scenario, m *Memo) (*FleetPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	circuit, err := m.Circuit(s, nil, b.Heuristic, b.Improve)
	if err != nil {
		return nil, err
	}
	plan, _, err := assembleFleet(s, circuit, b.Energies, effectiveDwell(b.Dwell))
	if err != nil {
		return nil, err
	}
	plan.Algorithm = b.Name()
	return plan, nil
}

// Circuit builds a counterclockwise Hamiltonian circuit over the member
// targets (global ids; nil means every target) with heuristic h, then
// 2-opt when improve is set, and returns it as a walk over global
// target ids. The nearest-neighbour tour starts at the sink when the
// sink is a member. Every planner's circuit comes from here: B-TCTP,
// W-TCTP and CHB over all targets, and C-BTCTP, C-WTCTP, Sweep and the
// absorb replan per region. The scenario must already be valid.
func Circuit(s *field.Scenario, members []int, h TourHeuristic, improve bool) (walk.Walk, error) {
	return (*Memo)(nil).Circuit(s, members, h, improve)
}

// Circuit is the package's Circuit with the kernel's tour remembered
// in m (see Memo): the same points, start, heuristic and flag build one
// tour, relabelled for each caller's members.
func (m *Memo) Circuit(s *field.Scenario, members []int, h TourHeuristic, improve bool) (walk.Walk, error) {
	if members == nil {
		// Every target: the kernel runs on the scenario's points
		// as they are, with no subset copy.
		t, err := m.circuit(s.Points(), s.SinkID, h, improve)
		if err != nil {
			return walk.Walk{}, err
		}
		return walk.Walk{Seq: t}, nil
	}
	sub := make([]geom.Point, len(members))
	start := 0
	for i, id := range members {
		sub[i] = s.Targets[id].Pos
		if id == s.SinkID {
			start = i
		}
	}
	t, err := m.circuit(sub, start, h, improve)
	if err != nil {
		return walk.Walk{}, err
	}
	for i, local := range t {
		t[i] = members[local]
	}
	return walk.Walk{Seq: t}, nil
}

// circuit is the tour kernel behind Circuit: heuristic h over pts (the
// nearest-neighbour tour starts at index start), optional 2-opt, and
// counterclockwise orientation. The tour is freshly allocated, so
// Circuit relabels it in place and wraps it without a copy.
func circuit(pts []geom.Point, start int, h TourHeuristic, improve bool) (tour.Tour, error) {
	var t tour.Tour
	switch h {
	case HullInsertion:
		t = tour.ConvexHullInsertion(pts)
	case NearestNeighborTour:
		t = tour.NearestNeighbor(pts, start)
	case GreedyEdgeTour:
		t = tour.GreedyEdge(pts)
	default:
		return nil, fmt.Errorf("core: unknown tour heuristic %v", h)
	}
	if improve {
		t = tour.TwoOpt(pts, t)
	}
	t = tour.EnsureCCW(pts, t)
	if err := tour.Validate(t, len(pts)); err != nil {
		return nil, fmt.Errorf("core: circuit construction: %w", err)
	}
	return t, nil
}
