package metrics

import "slices"

// The slice-building interval definitions: the Recorder's aggregates
// derive the same values from the visit log in place (see visitsAfter
// and meanGap), and the tests hold them to these two bit for bit.

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
