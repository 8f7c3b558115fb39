package metrics

import (
	"slices"

	"tctp/internal/stats"
)

// The slice-building interval definitions: the Recorder's aggregates
// derive the same values from the visit log in place (see visitsAfter
// and meanGap), and the tests hold them to these two bit for bit.

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

// The per-metric passes the fused gap summary replaced: AvgDCDTAfter,
// AvgSDAfter and MaxInterval each computed their value on their own
// walk over every log, the first two at a cut, the last over whole
// logs. The tests hold summary to them bit for bit.

// AvgDCDTOver is AvgDCDT restricted to a target subset (nil = all
// targets): the mean visiting interval of each whole log, averaged.
func (r *Recorder) AvgDCDTOver(targets []int) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.VisitTimes(t); len(ts) >= 2 {
			acc.Add(meanGap(ts))
		}
	})
	return acc.Mean()
}

// AvgSDOver is AvgSD restricted to a target subset (nil = all
// targets): the SD of each whole log's visiting intervals, averaged.
func (r *Recorder) AvgSDOver(targets []int) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if ts := r.VisitTimes(t); len(ts) >= 3 {
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
