package sweep

// Quality metrics: per-cell approximation ratios of the planned
// solution against the reference-optimum layer (internal/optimal).
// Each patrol group is bounded independently — a partitioned plan's k
// short cycles are compared against the k optimal sub-tours, not
// against one global tour they could legitimately beat — and the
// per-group bounds compose into a whole-plan denominator. Ratios are
// ≥ 1.0 by construction for any sound planner; a value below 1.0
// means a bound (or the solver under it) is wrong, and the quality
// study's tests treat it as a failure.

import (
	"tctp/internal/geom"
	"tctp/internal/optimal"
)

// Quality returns the quality metric family: the tour-length and DCDT
// approximation ratios. Appending these to a Spec changes its cells'
// content-addressed identities (metric names are part of the key), so
// cached quality cells never collide with plain cells.
func Quality() []Metric {
	return []Metric{RatioTour(), RatioDCDT()}
}

// RatioTour is the tour-length approximation ratio: the plan's total
// walk length over the sum of per-group optimal-tour bounds (exact
// Held-Karp below optimal.ExactThreshold targets per group, hull/MST
// above). 0 for online algorithms (no plan) and for degenerate plans
// whose bound is 0. Weighted walks (W-TCTP revisiting VIPs) report
// their true extra travel: the denominator is the unweighted optimal
// tour, which the weighted walk must still dominate.
func RatioTour() Metric {
	return Metric{Name: "ratio_tour", Fn: func(e Env) float64 {
		if e.Result.Plan == nil {
			return 0
		}
		pts := e.Scenario.Points()
		num, den := 0.0, 0.0
		for _, g := range e.Result.Plan.Groups {
			num += g.Walk.Length(pts)
			den += groupTourBound(pts, g.Targets)
		}
		if den == 0 {
			return 0
		}
		return num / den
	}}
}

// RatioDCDT is the delay approximation ratio: the measured
// steady-state average DCDT over the induced lower bound. The bound
// mirrors the measurement's weighting — Recorder.AvgDCDTAfter is the
// mean over targets of each target's mean visiting interval, so the
// denominator is the mean over the plan's targets of each target's
// interval floor, optimal.IntervalBound(groupBound, weight,
// groupSpeedSum): a group whose fleet speeds sum to S cannot revisit
// a weight-w member more often than every bound/(w·S) seconds on
// average, whatever the mule phasing. 0 when there is no plan or no
// positive bound.
func RatioDCDT() Metric {
	return Metric{Name: "ratio_dcdt", Fn: func(e Env) float64 {
		if e.Result.Plan == nil {
			return 0
		}
		measured := e.Result.Recorder.AvgDCDTAfter(e.Warm())
		if measured == 0 {
			return 0
		}
		pts := e.Scenario.Points()
		weights := e.Scenario.Weights()
		sum, n := 0.0, 0
		for _, g := range e.Result.Plan.Groups {
			b := groupTourBound(pts, g.Targets)
			speedSum := 0.0
			for _, m := range g.Mules {
				speedSum += e.MuleSpeed(m)
			}
			for _, id := range g.Targets {
				w := 1
				if id < len(weights) {
					w = weights[id]
				}
				sum += optimal.IntervalBound(b, w, speedSum)
				n++
			}
		}
		if n == 0 || sum == 0 {
			return 0
		}
		return measured / (sum / float64(n))
	}}
}

// groupTourBound is the optimal-tour lower bound over one group's
// member points.
func groupTourBound(pts []geom.Point, ids []int) float64 {
	member := make([]geom.Point, len(ids))
	for i, id := range ids {
		member[i] = pts[id]
	}
	return optimal.TourBound(member).Value
}
