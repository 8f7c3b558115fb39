// Package metrics records target visits during a simulation and
// derives the paper's evaluation quantities from them:
//
//   - the visiting interval of a target — the time between two
//     consecutive visits (the paper's headline metric, which the
//     planners aim to minimize and balance);
//   - the Data Collection Delay Time (DCDT) series of Fig. 7 — the
//     k-th visiting interval aggregated over targets;
//   - the per-target SD of Figs. 8 and 10 — the sample standard
//     deviation of a target's consecutive visiting intervals.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"tctp/internal/geom"
	"tctp/internal/stats"
)

// Recorder accumulates visit timestamps per target. It is not safe
// for concurrent use; a simulation is single-threaded by design (the
// experiment harness parallelizes across independent runs instead).
type Recorder struct {
	visits [][]float64
}

// NewRecorder returns a recorder for nTargets targets (indexed
// 0..nTargets-1).
func NewRecorder(nTargets int) *Recorder {
	return NewRecorderCap(nTargets, 0)
}

// NewRecorderCap is NewRecorder with a per-target visit-count capacity
// hint: every target's series is carved out of one flat backing array
// with room for visitCap timestamps, so a simulation whose visit
// counts stay within the hint performs no recording allocations at
// all. The full-slice-expression cap means a target that outgrows its
// slot reallocates independently instead of clobbering its
// neighbour's slot, so the hint affects only allocation behaviour,
// never recorded values. visitCap <= 0 means no preallocation.
func NewRecorderCap(nTargets, visitCap int) *Recorder {
	if nTargets <= 0 {
		panic(fmt.Sprintf("metrics: NewRecorder(%d)", nTargets))
	}
	r := &Recorder{visits: make([][]float64, nTargets)}
	if visitCap > 0 {
		flat := make([]float64, nTargets*visitCap)
		for i := range r.visits {
			r.visits[i] = flat[i*visitCap : i*visitCap : (i+1)*visitCap]
		}
	}
	return r
}

// NumTargets returns the number of tracked targets.
func (r *Recorder) NumTargets() int { return len(r.visits) }

// OnVisit records that a mule visited target at simulation time t. It
// has the signature expected by mule.Config.OnVisit (the mule identity
// does not matter for interval metrics: any mule's visit resets the
// target's clock). It panics on an out-of-range target, and on a time
// earlier than the target's last recorded visit: every log is
// time-ordered, which the suffix searches of the ...After aggregates,
// FirstVisitAfter and the gap metrics rely on. Simulation time is
// monotone, so only a caller outside a simulation can trip this.
func (r *Recorder) OnVisit(_, target int, t float64) {
	if target < 0 || target >= len(r.visits) {
		panic(fmt.Sprintf("metrics: visit to target %d of %d", target, len(r.visits)))
	}
	ts := r.visits[target]
	if n := len(ts); n > 0 && t < ts[n-1] {
		panic(fmt.Sprintf("metrics: visit to target %d at %v before its last visit at %v", target, t, ts[n-1]))
	}
	r.visits[target] = append(ts, t)
}

// OnDeath completes the patrol.Observer interface; battery deaths do
// not affect interval metrics.
func (r *Recorder) OnDeath(int, float64, geom.Point) {}

// OnRecharge completes the patrol.Observer interface; recharge stops
// do not affect interval metrics.
func (r *Recorder) OnRecharge(int, float64) {}

// VisitTimes returns the visit timestamps of target in order.
func (r *Recorder) VisitTimes(target int) []float64 {
	return r.visits[target]
}

// VisitCount returns the number of recorded visits to target.
func (r *Recorder) VisitCount(target int) int {
	return len(r.visits[target])
}

// MinVisitCount returns the smallest visit count over all targets.
func (r *Recorder) MinVisitCount() int {
	min := -1
	for _, v := range r.visits {
		if min == -1 || len(v) < min {
			min = len(v)
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// Intervals returns the consecutive visiting intervals of target:
// interval k is the time between visit k and visit k+1. A target with
// fewer than two visits yields nil.
func (r *Recorder) Intervals(target int) []float64 {
	ts := r.visits[target]
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i] - ts[i-1]
	}
	return out
}

// IntervalsAfter returns the visiting intervals of target restricted
// to visits at or after t0. Use it to discard the location-
// initialization transient when measuring steady-state behaviour.
//
// Intervals and IntervalsAfter build the interval slices; the
// aggregates below derive the same values from the visit log in place
// (see visitsAfter and meanGap), and the tests hold them to these two.
func (r *Recorder) IntervalsAfter(target int, t0 float64) []float64 {
	ts := r.visits[target]
	var kept []float64
	for _, t := range ts {
		if t >= t0 {
			kept = append(kept, t)
		}
	}
	if len(kept) < 2 {
		return nil
	}
	out := make([]float64, len(kept)-1)
	for i := 1; i < len(kept); i++ {
		out[i-1] = kept[i] - kept[i-1]
	}
	return out
}

// visitsAfter returns the target's visits at or after t0. The log is
// time-ordered (OnVisit enforces it), so they are a suffix of it, and
// the intervals of the suffix are exactly IntervalsAfter.
func (r *Recorder) visitsAfter(target int, t0 float64) []float64 {
	ts := r.visits[target]
	return ts[sort.SearchFloat64s(ts, t0):]
}

// meanGap is stats.Mean of the consecutive differences of ts (0 for
// fewer than two visits). The differences are formed on the fly and
// summed in the order stats.Mean sums the interval slice, so the
// result is bit-identical to stats.Mean(Intervals) without building
// the slice.
func meanGap(ts []float64) float64 {
	if len(ts) < 2 {
		return 0
	}
	s := 0.0
	for i := 1; i < len(ts); i++ {
		s += ts[i] - ts[i-1]
	}
	return s / float64(len(ts)-1)
}

// sdGap is stats.SampleSD of the consecutive differences of ts (0 for
// fewer than three visits), bit-identical to it in the way meanGap is
// to stats.Mean: the same two passes over the same values in the same
// order.
func sdGap(ts []float64) float64 {
	n := len(ts) - 1
	if n < 2 {
		return 0
	}
	m := meanGap(ts)
	s := 0.0
	for i := 1; i < len(ts); i++ {
		d := ts[i] - ts[i-1] - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// SD returns the paper's per-target SD metric: the sample standard
// deviation of the target's consecutive visiting intervals
// (SD = sqrt(1/(n−1)·Σ(t_k − t̄)²) over the n intervals). Targets with
// fewer than two intervals yield 0.
func (r *Recorder) SD(target int) float64 {
	return sdGap(r.visits[target])
}

// SDAfter is SD restricted to visits at or after t0.
func (r *Recorder) SDAfter(target int, t0 float64) float64 {
	return sdGap(r.visitsAfter(target, t0))
}

// MeanInterval returns the mean visiting interval of target (0 when
// the target has fewer than two visits).
func (r *Recorder) MeanInterval(target int) float64 {
	return meanGap(r.visits[target])
}

// eachTarget invokes fn for every target of the subset — or for every
// recorded target, in ascending id order, when targets is nil. The nil
// form is the classic whole-scenario metric; a patrol group passes its
// member ids to get the same metric restricted to its region.
func (r *Recorder) eachTarget(targets []int, fn func(t int)) {
	if targets == nil {
		for t := range r.visits {
			fn(t)
		}
		return
	}
	for _, t := range targets {
		fn(t)
	}
}

// AvgSD returns the SD metric averaged over all targets that have at
// least two intervals — the z-axis of Figs. 8 and 10.
func (r *Recorder) AvgSD() float64 { return r.AvgSDOver(nil) }

// AvgSDOver is AvgSD restricted to a target subset (nil = all
// targets) — the per-group regularity of a partitioned plan.
func (r *Recorder) AvgSDOver(targets []int) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visits[t]; len(ts) >= 3 {
			acc.Add(sdGap(ts))
		}
	})
	return acc.Mean()
}

// AvgSDAfter is AvgSD restricted to visits at or after t0.
func (r *Recorder) AvgSDAfter(t0 float64) float64 {
	return r.AvgSDAfterOver(nil, t0)
}

// AvgSDAfterOver is AvgSDAfter restricted to a target subset (nil =
// all targets).
func (r *Recorder) AvgSDAfterOver(targets []int, t0 float64) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visitsAfter(t, t0); len(ts) >= 3 {
			acc.Add(sdGap(ts))
		}
	})
	return acc.Mean()
}

// AvgDCDT returns the mean visiting interval averaged over all targets
// with at least one interval — the z-axis of Fig. 9.
func (r *Recorder) AvgDCDT() float64 { return r.AvgDCDTOver(nil) }

// AvgDCDTOver is AvgDCDT restricted to a target subset (nil = all
// targets) — the per-group delay of a partitioned plan.
func (r *Recorder) AvgDCDTOver(targets []int) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visits[t]; len(ts) >= 2 {
			acc.Add(meanGap(ts))
		}
	})
	return acc.Mean()
}

// AvgDCDTAfter is AvgDCDT restricted to visits at or after t0.
func (r *Recorder) AvgDCDTAfter(t0 float64) float64 {
	return r.AvgDCDTAfterOver(nil, t0)
}

// AvgDCDTAfterOver is AvgDCDTAfter restricted to a target subset
// (nil = all targets).
func (r *Recorder) AvgDCDTAfterOver(targets []int, t0 float64) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visitsAfter(t, t0); len(ts) >= 2 {
			acc.Add(meanGap(ts))
		}
	})
	return acc.Mean()
}

// MaxInterval returns the maximal visiting interval over all targets
// and intervals — the quantity the paper's problem statement
// minimizes ("the goal ... is to minimize the maximal visiting
// interval"). Returns 0 when no target has two visits.
func (r *Recorder) MaxInterval() float64 { return r.MaxIntervalOver(nil) }

// MaxIntervalOver is MaxInterval restricted to a target subset (nil =
// all targets).
func (r *Recorder) MaxIntervalOver(targets []int) float64 {
	m := 0.0
	r.eachTarget(targets, func(t int) {
		ts := r.visits[t]
		for i := 1; i < len(ts); i++ {
			if iv := ts[i] - ts[i-1]; iv > m {
				m = iv
			}
		}
	})
	return m
}

// DCDTSeries returns, for k = 1..maxK, the k-th visiting interval
// averaged over the targets that have a k-th interval. Targets that
// never reach the k-th interval simply stop contributing.
func (r *Recorder) DCDTSeries(maxK int) []float64 {
	out := make([]float64, 0, maxK)
	for k := 1; k <= maxK; k++ {
		var acc stats.Accumulator
		for t := range r.visits {
			iv := r.Intervals(t)
			if len(iv) >= k {
				acc.Add(iv[k-1])
			}
		}
		if acc.N() == 0 {
			break
		}
		out = append(out, acc.Mean())
	}
	return out
}

// EventDCDTSeries returns the paper's Fig. 7 curve: visit events from
// all targets are ordered by time, each carrying the interval since
// that target's previous visit (its "data collection delay"), and the
// first maxK such events are returned. Under B-TCTP every event
// carries the same interval (a flat line); under CHB and Sweep the
// sequence cycles through the unequal inter-mule gaps or the unequal
// group periods ("the DCDT vibrates periodically"); under Random it
// is erratic.
func (r *Recorder) EventDCDTSeries(maxK int) []float64 {
	type event struct {
		t, interval float64
	}
	var events []event
	for target := range r.visits {
		ts := r.visits[target]
		for i := 1; i < len(ts); i++ {
			events = append(events, event{t: ts[i], interval: ts[i] - ts[i-1]})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].interval < events[b].interval
	})
	if len(events) > maxK {
		events = events[:maxK]
	}
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = e.interval
	}
	return out
}

// FirstVisitAfter returns the time of the target's first visit at or
// after t0, or -1 when the target is never visited again.
func (r *Recorder) FirstVisitAfter(target int, t0 float64) float64 {
	ts := r.visitsAfter(target, t0)
	if len(ts) == 0 {
		return -1
	}
	return ts[0]
}

// TimeToRecoverOver returns how long after t0 the patrol needs until
// every member target (nil = all) has been visited again: the maximum
// over targets of (first visit ≥ t0) − t0. A target never visited
// again in [t0, end] is censored at the window end, contributing
// end − t0 — the degraded-mode time-to-recover after a fleet failure.
func (r *Recorder) TimeToRecoverOver(targets []int, t0, end float64) float64 {
	worst := 0.0
	r.eachTarget(targets, func(t int) {
		d := end - t0
		if v := r.FirstVisitAfter(t, t0); v >= 0 && v <= end {
			d = v - t0
		}
		if d > worst {
			worst = d
		}
	})
	if worst < 0 {
		worst = 0
	}
	return worst
}

// maxGap returns the target's longest visit-free stretch within the
// window [from, to], counting the boundary stretches from→first visit
// and last visit→to; a target unvisited in the window contributes the
// whole window length.
func (r *Recorder) maxGap(target int, from, to float64) float64 {
	if to <= from {
		return 0
	}
	prev := from
	gap := 0.0
	for _, v := range r.visitsAfter(target, from) {
		if v > to {
			break
		}
		if g := v - prev; g > gap {
			gap = g
		}
		prev = v
	}
	if g := to - prev; g > gap {
		gap = g
	}
	return gap
}

// MaxGapOver returns the longest visit-free stretch any member target
// (nil = all) suffers within [from, to] — the worst-case coverage gap
// of a degraded fleet.
func (r *Recorder) MaxGapOver(targets []int, from, to float64) float64 {
	m := 0.0
	r.eachTarget(targets, func(t int) {
		if g := r.maxGap(t, from, to); g > m {
			m = g
		}
	})
	return m
}

// AvgMaxGapOver averages the per-target longest visit-free stretch
// within [from, to] over the subset (nil = all targets) — the
// coverage-gap duration metric of degraded-mode sweeps.
func (r *Recorder) AvgMaxGapOver(targets []int, from, to float64) float64 {
	sum, n := 0.0, 0
	r.eachTarget(targets, func(t int) {
		sum += r.maxGap(t, from, to)
		n++
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
