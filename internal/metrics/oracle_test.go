package metrics

import (
	"math"
	"slices"

	"tctp/internal/stats"
)

// The slice-building interval definitions: the Recorder's aggregates
// derive the same values from the visit log in place (see summary), and
// the tests hold them to these two bit for bit.

// Intervals returns the consecutive visiting intervals of target:
// interval k is the time between visit k and visit k+1. A target with
// fewer than two visits yields nil.
func (r *Recorder) Intervals(target int) []float64 {
	ts := r.VisitTimes(target)
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
func (r *Recorder) IntervalsAfter(target int, t0 float64) []float64 {
	ts := r.VisitTimes(target)
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

// mergeRuns is the recorder's run merge before the gather: it
// sorts ts, a sequence of time-sorted runs, and returns how many runs it
// held, finding them by their descents, whose indexes it keeps in an
// array on the stack (which moves to the heap only past 130 runs), and
// merging them pass after pass. buf must have room for ts unless ts is
// one run, which is left as it is; a buf too short is replaced by a new
// one.
func mergeRuns(ts, buf []float64) int {
	var stack [130]int
	ends := stack[:0]
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			ends = append(ends, i)
		}
	}
	if len(ends) == 0 {
		return 1
	}
	ends = append(ends, len(ts))
	if len(buf) < len(ts) {
		buf = make([]float64, len(ts))
	}
	mergeEnds(ts, buf, ends)
	return len(ends)
}

// sortedRuns is the run merge's oracle: the runs concatenated and
// sorted by slices.Sort.
func sortedRuns(runs [][]float64) []float64 {
	var all []float64
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.Sort(all)
	return all
}

// meanGap is stats.Mean of the consecutive differences of ts (0 for
// fewer than two visits). The differences are formed on the fly and
// summed in the order stats.Mean sums an interval slice, so the result
// is bit-identical to stats.Mean of the intervals without building the
// slice.
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
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(n-1))
}

// The per-metric passes the interval fold replaced: the mean and the
// SD aggregates each computed their value on their own walk over the
// written-out logs of a subset, at a cut, and MaxInterval over whole
// logs. The tests hold summary to them bit for bit.

// dcdtPass is AvgDCDTAfterOver on its own pass: meanGap of each log's
// visits at or after t0, averaged over the subset (nil = all targets).
func (r *Recorder) dcdtPass(targets []int, t0 float64) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visitsAfter(t, t0); len(ts) >= 2 {
			acc.Add(meanGap(ts))
		}
	})
	return acc.Mean()
}

// sdPass is AvgSDAfterOver on its own pass: sdGap of each log's visits
// at or after t0, averaged over the subset (nil = all targets).
func (r *Recorder) sdPass(targets []int, t0 float64) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.visitsAfter(t, t0); len(ts) >= 3 {
			acc.Add(sdGap(ts))
		}
	})
	return acc.Mean()
}

// MaxIntervalOver is MaxInterval restricted to a target subset (nil =
// all targets).
func (r *Recorder) MaxIntervalOver(targets []int) float64 {
	m := 0.0
	r.eachTarget(targets, func(t int) {
		ts := r.VisitTimes(t)
		for i := 1; i < len(ts); i++ {
			if iv := ts[i] - ts[i-1]; iv > m {
				m = iv
			}
		}
	})
	return m
}
