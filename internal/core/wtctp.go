package core

import (
	"fmt"
	"math"
	"sort"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

// BreakPolicy selects how W-TCTP chooses the break edge for each new
// VIP cycle (§3.1-A).
type BreakPolicy int

// The paper's two policies plus a random ablation.
const (
	// ShortestLength (Exp. 1) breaks the edge minimizing the added
	// detour |g_y g_k| + |g_{y+1} g_k| − |g_y g_{y+1}|, minimizing
	// the total WPP length.
	ShortestLength BreakPolicy = iota
	// BalancingLength (Exp. 2) breaks the edge that brings the cycle
	// lengths at the VIP closest to the uniform share L_avg = |P̄|/w_i,
	// balancing the VIP's visiting intervals.
	BalancingLength
	// RandomBreak picks a uniformly random valid edge — the A2
	// ablation's control arm, not part of the paper.
	RandomBreak
)

// String implements fmt.Stringer.
func (p BreakPolicy) String() string {
	switch p {
	case ShortestLength:
		return "shortest"
	case BalancingLength:
		return "balancing"
	case RandomBreak:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// WTCTP is the Weighted TCTP planner (§III). The zero value uses the
// paper's defaults: hull-insertion circuit, Shortest-Length policy,
// angle-rule traversal.
type WTCTP struct {
	// Heuristic selects the base circuit construction.
	Heuristic TourHeuristic
	// Improve applies 2-opt to the base circuit (ablation knob).
	Improve bool
	// Policy selects the break-edge rule.
	Policy BreakPolicy
	// DisableAngleRule keeps the insertion-order traversal instead of
	// re-deriving it with the §3.2 patrolling rule (A5 ablation).
	DisableAngleRule bool
	// Energies optionally carries per-mule remaining energy for the
	// location-initialization tie-break.
	Energies []float64
	// Dwell is the per-collection pause (seconds) used for the
	// phase-equalizing start holds. Zero selects the default; use
	// NoDwell for a literal zero.
	Dwell float64
	// Rand drives RandomBreak; nil defaults to a fixed seed.
	Rand *xrand.Source
}

// Name implements Planner.
func (wt *WTCTP) Name() string {
	return "W-TCTP(" + wt.Policy.String() + ")"
}

// Plan implements Planner: it builds the WPP and hands it to the same
// start-point partition and location initialization as B-TCTP
// (§3.2: "each DM executes the location initialization task as
// proposed in B-TCTP").
func (wt *WTCTP) Plan(s *field.Scenario) (*FleetPlan, error) { return wt.PlanMemo(s, nil, nil) }

// PlanMemo implements MemoPlanner: Plan with the WPP and its circuit
// from m, in a.
func (wt *WTCTP) PlanMemo(s *field.Scenario, m *Memo, a *Arena) (*FleetPlan, error) {
	wpp, err := wt.buildWPP(s, m, a)
	if err != nil {
		return nil, err
	}
	plan, _, err := a.assembleFleet(s, wpp, wt.Energies, effectiveDwell(wt.Dwell))
	if err != nil {
		return nil, err
	}
	plan.Algorithm = wt.Name()
	return plan, nil
}

// BuildWPP validates the scenario and constructs its Weighted
// Patrolling Path over every target.
func (wt *WTCTP) BuildWPP(s *field.Scenario) (walk.Walk, error) { return wt.buildWPP(s, nil, nil) }

// buildWPP is BuildWPP with the path and its circuit from m, a
// remembered path copied into a.
func (wt *WTCTP) buildWPP(s *field.Scenario, m *Memo, a *Arena) (walk.Walk, error) {
	if err := s.Validate(); err != nil {
		return walk.Walk{}, err
	}
	rnd := wt.Rand
	if rnd == nil {
		rnd = xrand.New(0)
	}
	if m != nil {
		if key := wppKeyOf(wt, s, a); key != "" {
			seq, err := m.do(key, func() ([]int, error) {
				w, err := wt.wpp(s, nil, rnd, m)
				return w.Seq, err
			}, a)
			return walk.Walk{Seq: seq}, err
		}
	}
	return wt.wpp(s, nil, rnd, m)
}

// wpp builds the WPP over the member targets (nil means every target;
// C-WTCTP passes one region at a time): a closed walk in which every
// member VIP of weight w occurs w times and no non-member occurs at all
// (Definition 3 holds by construction; see walk.CyclesAt for the cycle
// decomposition). VIPs are processed in descending weight order
// (priority p_i = w_i, §3.1-B), ties by ascending id, each
// contributing w_i − 1 break-edge insertions chosen by the configured
// policy; rnd drives RandomBreak. The walk is then re-traversed under
// the §3.2 angle rule unless disabled. The circuit comes from m.
func (wt *WTCTP) wpp(s *field.Scenario, members []int, rnd *xrand.Source, m *Memo) (walk.Walk, error) {
	w, err := m.Circuit(s, members, wt.Heuristic, wt.Improve, nil)
	if err != nil {
		return walk.Walk{}, err
	}
	if members == nil {
		members = SeqIDs(s.NumTargets())
	}
	pts := s.Points()

	want := make([]int, s.NumTargets())
	var vips []int
	for _, id := range members {
		want[id] = s.Targets[id].Weight
		if s.Targets[id].IsVIP() {
			vips = append(vips, id)
		}
	}
	sort.Slice(vips, func(a, b int) bool {
		wa, wb := s.Targets[vips[a]].Weight, s.Targets[vips[b]].Weight
		if wa != wb {
			return wa > wb
		}
		return vips[a] < vips[b]
	})
	for _, vip := range vips {
		weight := s.Targets[vip].Weight
		for x := 1; x < weight; x++ {
			pos, err := wt.selectBreakEdge(pts, w, vip, rnd)
			if err != nil {
				return walk.Walk{}, err
			}
			w = w.InsertAfter(pos, vip)
		}
	}

	if !wt.DisableAngleRule {
		w = TraverseAngleRule(pts, w)
	}
	if err := w.Validate(s.NumTargets(), want); err != nil {
		return walk.Walk{}, fmt.Errorf("core: WPP construction: %w", err)
	}
	return w, nil
}

// selectBreakEdge returns the walk position of the break edge for the
// next cycle through vip, per the planner's policy. Edges incident to
// the VIP are never candidates (breaking one would create a degenerate
// zero-length edge).
func (wt *WTCTP) selectBreakEdge(pts []geom.Point, w walk.Walk, vip int, rnd *xrand.Source) (int, error) {
	n := len(w.Seq)
	var candidates []int
	for pos := 0; pos < n; pos++ {
		u, v := w.Seq[pos], w.Seq[(pos+1)%n]
		if u == vip || v == vip {
			continue
		}
		candidates = append(candidates, pos)
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("core: no valid break edge for VIP %d (walk size %d)", vip, n)
	}

	switch wt.Policy {
	case ShortestLength:
		best, bestCost := -1, math.Inf(1)
		for _, pos := range candidates {
			u, v := w.Seq[pos], w.Seq[(pos+1)%n]
			c := geom.DetourCost(pts[u], pts[v], pts[vip])
			if c < bestCost-geom.Eps {
				best, bestCost = pos, c
			}
		}
		return best, nil

	case BalancingLength:
		best, bestCost := -1, math.Inf(1)
		for _, pos := range candidates {
			cand := w.InsertAfter(pos, vip)
			lens := cand.CycleLengthsAt(pts, vip)
			avg := cand.Length(pts) / float64(len(lens))
			cost := 0.0
			for _, l := range lens {
				cost += math.Abs(l - avg)
			}
			if cost < bestCost-geom.Eps {
				best, bestCost = pos, cost
			}
		}
		return best, nil

	case RandomBreak:
		return candidates[rnd.Intn(len(candidates))], nil

	default:
		return 0, fmt.Errorf("core: unknown break policy %v", wt.Policy)
	}
}
