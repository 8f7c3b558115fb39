package core

import (
	"fmt"
	"math"

	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/walk"
)

// RWTCTP is the recharge-aware planner (§IV). It builds the same WPP
// as W-TCTP plus a Weighted Recharge Path (WRP) — the WPP with the
// recharge station spliced into the minimum-detour edge (Exp. 3) —
// and schedules each mule to patrol the WPP r−1 times followed by the
// WRP once, where r is the Equ. 4 round budget, so batteries are
// refilled before they run out.
type RWTCTP struct {
	// WTCTP configures the underlying WPP construction (policy,
	// heuristic, traversal). RW-TCTP treats every configuration of
	// W-TCTP as its path-construction phase.
	WTCTP
	// Model is the energy model used for the Equ. 4 round budget.
	// The zero Model is replaced by energy.Default().
	Model energy.Model
}

// Name implements Planner.
func (r *RWTCTP) Name() string {
	return "RW-TCTP(" + r.Policy.String() + ")"
}

// model returns the configured energy model, defaulting to the
// paper's constants.
func (r *RWTCTP) model() energy.Model {
	if r.Model == (energy.Model{}) {
		return energy.Default()
	}
	return r.Model
}

// Plan implements Planner. The returned plan's per-mule cycle
// alternates a WPP phase repeated r−1 times with a WRP phase executed
// once; mules therefore pass the recharge station exactly once every r
// rounds ("each DM should patrol along WRP P̄ every r rounds", §4.2).
func (r *RWTCTP) Plan(s *field.Scenario) (*FleetPlan, error) { return r.PlanMemo(s, nil) }

// PlanMemo implements MemoPlanner: Plan with the WPP and its circuit
// from m.
func (r *RWTCTP) PlanMemo(s *field.Scenario, m *Memo) (*FleetPlan, error) {
	if !s.HasRecharge {
		return nil, fmt.Errorf("core: RW-TCTP requires a recharge station in the scenario")
	}
	wpp, err := r.buildWPP(s, m)
	if err != nil {
		return nil, err
	}
	pts := s.Points()

	plan, anchors, err := assembleFleet(s, wpp, r.Energies, r.model().Dwell)
	if err != nil {
		return nil, err
	}
	plan.Algorithm = r.Name()
	wpp = plan.Groups[0].Walk // assembleFleet rotated the walk to the northmost target

	breakPos, err := selectRechargeEdge(pts, wpp, s.Recharge)
	if err != nil {
		return nil, err
	}
	plan.Groups[0].RechargeWalk = buildWRPWalk(wpp, breakPos)

	rounds, err := r.roundBudget(pts, wpp, s.Recharge, breakPos)
	if err != nil {
		return nil, err
	}
	plan.Rounds = rounds

	// Rewrite each mule's single-phase cycle into the WPP/WRP
	// alternation. The recharge stop is inserted between the two break
	// points inside the mule's own rotated loop.
	for i := range plan.Routes {
		wppStops := plan.Routes[i].Cycle[0].Stops
		wrpStops := insertRechargeStop(wppStops, anchors[i], breakPos, len(wpp.Seq), s.Recharge)
		var cycle []Phase
		if rounds > 1 {
			cycle = append(cycle, Phase{Stops: wppStops, Repeat: rounds - 1})
		}
		cycle = append(cycle, Phase{Stops: wrpStops, Repeat: 1})
		plan.Routes[i].Cycle = cycle
	}
	return plan, nil
}

// selectRechargeEdge implements Exp. 3: among all WPP edges, pick the
// one minimizing the recharge detour |g_y R| + |g_{y+1} R| − |g_y
// g_{y+1}|. Returns the walk position y of the chosen edge.
func selectRechargeEdge(pts []geom.Point, w walk.Walk, station geom.Point) (int, error) {
	n := len(w.Seq)
	if n < 2 {
		return 0, fmt.Errorf("core: WPP too small (%d stops) to splice a recharge station", n)
	}
	best, bestCost := -1, math.Inf(1)
	for pos := 0; pos < n; pos++ {
		u, v := pts[w.Seq[pos]], pts[w.Seq[(pos+1)%n]]
		c := geom.DetourCost(u, v, station)
		if c < bestCost-geom.Eps {
			best, bestCost = pos, c
		}
	}
	return best, nil
}

// RechargeID is the pseudo-target index used for the recharge station
// inside a RechargeWalk (it is not a data target; metrics ignore it).
const RechargeID = -2

// buildWRPWalk returns the WRP as a walk whose sequence includes
// RechargeID spliced after position breakPos of the WPP.
func buildWRPWalk(wpp walk.Walk, breakPos int) walk.Walk {
	seq := make([]int, 0, len(wpp.Seq)+1)
	seq = append(seq, wpp.Seq[:breakPos+1]...)
	seq = append(seq, RechargeID)
	seq = append(seq, wpp.Seq[breakPos+1:]...)
	return walk.New(seq)
}

// insertRechargeStop splices the recharge waypoint into a mule's
// rotated WPP stop list. anchor is the walk position of the mule's
// first stop; the recharge stop goes between walk positions breakPos
// and breakPos+1, i.e. after rotated index (breakPos − anchor) mod n.
func insertRechargeStop(stops []mule.Waypoint, anchor, breakPos, n int, station geom.Point) []mule.Waypoint {
	j := ((breakPos-anchor)%n + n) % n
	out := make([]mule.Waypoint, 0, len(stops)+1)
	out = append(out, stops[:j+1]...)
	out = append(out, mule.Waypoint{Pos: station, TargetID: mule.NoTarget, Recharge: true})
	out = append(out, stops[j+1:]...)
	return out
}

// roundBudget computes Equ. 4's r and verifies that a full
// (r−1)·WPP + WRP super-round is actually affordable, shrinking r if
// the recharge detour tips the budget. The visit count per round is
// the walk size (Σ w_i collections — the paper's h·c_s term with VIP
// revisits accounted for). Returns an error when even a single WRP
// round exceeds the battery, i.e. the scenario is infeasible for this
// battery.
func (r *RWTCTP) roundBudget(pts []geom.Point, wpp walk.Walk, station geom.Point, breakPos int) (int, error) {
	m := r.model()
	wppLen := wpp.Length(pts)
	u, v := pts[wpp.Seq[breakPos]], pts[wpp.Seq[(breakPos+1)%len(wpp.Seq)]]
	wrpLen := wppLen + geom.DetourCost(u, v, station)

	visits := wpp.Size()
	wrpEnergy := m.RoundEnergy(wrpLen, visits)
	if wrpEnergy > m.Capacity {
		return 0, fmt.Errorf("core: battery %.0f J cannot complete one recharge round (%.0f J)",
			m.Capacity, wrpEnergy)
	}

	rounds := m.Rounds(wppLen, visits) // Equ. 4
	if rounds < 1 {
		rounds = 1
	}
	// The super-round (r−1 WPP traversals + 1 WRP traversal) must fit
	// in one battery charge; Equ. 4 ignores the detour, so trim.
	for rounds > 1 {
		total := float64(float64(rounds-1)*m.RoundEnergy(wppLen, visits)) + wrpEnergy
		if total <= m.Capacity {
			break
		}
		rounds--
	}
	return rounds, nil
}
