// Package metrics records target visits during a simulation and
// derives the paper's evaluation quantities from them:
//
//   - the visiting interval of a target — the time between two
//     consecutive visits (the paper's headline metric, which the
//     planners aim to minimize and balance);
//   - the Data Collection Delay Time (DCDT) series of Fig. 7 — the
//     interval each visit closes, in time order over all targets;
//   - the per-target SD of Figs. 8 and 10 — the sample standard
//     deviation of a target's consecutive visiting intervals.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tctp/internal/geom"
	"tctp/internal/stats"
)

// Recorder accumulates visit timestamps per target. It is not safe
// for concurrent use; a simulation is single-threaded by design (the
// experiment harness parallelizes across independent runs instead).
type Recorder struct {
	visits [][]float64
	// The logs are carved from the first used values of flat, the
	// backing array; MergeRuns merges in its spare tail or in scratch,
	// a buffer of the recorder's own. Both arrays are kept so a
	// released recorder can hand them to the next run.
	flat, scratch []float64
	used          int
	// runs reports that Append takes a visit earlier than its target's
	// last as the start of a new run (see AllowRuns); breaks counts the
	// runs so started and not yet merged, longest is the largest
	// capacity of a log among them, and merged is the most runs the
	// last MergeRuns merged into one log.
	runs                    bool
	breaks, longest, merged int
}

// recorders holds released recorders for NewRecorderCap to reuse.
// released records that Release has ever run: until then
// NewRecorderCap skips the pool, whose Get allocates after every
// garbage collection.
var (
	recorders sync.Pool
	released  atomic.Bool
)

// NewRecorderCap returns a recorder for nTargets targets (indexed
// 0..nTargets-1) with per-target visit-count capacities: target i's
// series is carved out of one flat backing array with room
// for caps[i] timestamps, so a simulation whose visit counts stay
// within them performs no recording allocations at all. The
// full-slice-expression cap means a target that outgrows its slot
// reallocates independently instead of clobbering its neighbour's
// slot, so the capacities affect only allocation behaviour, never
// recorded values. A nil caps means no preallocation; otherwise it
// must have one entry per target. The recorder reuses the log table,
// backing array and merge buffer of a released one (see Release) when
// there is one.
func NewRecorderCap(nTargets int, caps []int) *Recorder {
	if nTargets <= 0 {
		panic(fmt.Sprintf("metrics: NewRecorderCap(%d)", nTargets))
	}
	if caps != nil && len(caps) != nTargets {
		panic(fmt.Sprintf("metrics: %d capacities for %d targets", len(caps), nTargets))
	}
	var r *Recorder
	if released.Load() {
		r, _ = recorders.Get().(*Recorder)
	}
	if r == nil {
		r = new(Recorder)
	}
	r.reset(nTargets, caps)
	return r
}

// reset empties r for nTargets targets with capacities caps, as
// NewRecorderCap describes, reusing what r holds.
func (r *Recorder) reset(nTargets int, caps []int) {
	r.runs, r.breaks, r.longest, r.merged, r.used = false, 0, 0, 0, 0
	if cap(r.visits) < nTargets {
		r.visits = make([][]float64, nTargets)
	}
	r.visits = r.visits[:nTargets]
	if caps == nil {
		clear(r.visits)
		return
	}
	total := 0
	for _, c := range caps {
		total += c
	}
	if cap(r.flat) < total {
		r.flat = make([]float64, total)
	}
	r.used = total
	off := 0
	for i, c := range caps {
		r.visits[i] = r.flat[off : off : off+c]
		off += c
	}
}

// Release hands r back for a later NewRecorderCap to reuse, so a
// caller that runs simulation after simulation does not allocate and
// zero a visit log per run. Neither r nor any log read from it may be
// used afterwards: the next run overwrites them. A caller that never
// releases its recorder keeps it for good.
func Release(r *Recorder) {
	released.Store(true)
	recorders.Put(r)
}

// NumTargets returns the number of tracked targets.
func (r *Recorder) NumTargets() int { return len(r.visits) }

// OnVisit records that a mule visited target at simulation time t. It
// has the signature expected by mule.Config.OnVisit (the mule identity
// does not matter for interval metrics: any mule's visit resets the
// target's clock). It panics on an out-of-range target, and on a time
// earlier than the target's last recorded visit: every log is
// time-ordered per target, which the suffix searches of the ...After
// aggregates, FirstVisitAfter and the gap metrics rely on. Calls are
// not globally time-ordered when mules run ahead of the engine
// (patrol.Run): each such mule records its whole run, most of it
// through Append, before the next one records its own. After AllowRuns
// the recorder therefore takes an earlier visit as the start of a new
// run, and MergeRuns restores the order before any metric reads the
// log.
func (r *Recorder) OnVisit(_, target int, t float64) {
	if target < 0 || target >= len(r.visits) {
		panic(fmt.Sprintf("metrics: visit to target %d of %d", target, len(r.visits)))
	}
	r.Append(target, t)
}

// Append is OnVisit without the mule, for a caller that calls the
// recorder directly on every visit: a mule running its compiled cycle
// ahead of the engine (mule.RunUntil). It treats a time earlier than
// target's last visit as OnVisit does, and is small enough to inline.
func (r *Recorder) Append(target int, t float64) {
	ts := r.visits[target]
	if n := len(ts); n > 0 && t < ts[n-1] {
		r.startRun(target, t)
		return
	}
	r.visits[target] = append(r.visits[target], t)
}

// startRun is Append for a visit earlier than the target's last: the
// first visit of a new run on a recorder that takes runs, a panic on
// any other.
func (r *Recorder) startRun(target int, t float64) {
	ts := r.visits[target]
	if !r.runs {
		panic(orderError{target, t, ts[len(ts)-1]})
	}
	r.breaks++
	r.longest = max(r.longest, cap(ts))
	r.visits[target] = append(ts, t)
}

// AllowRuns readies r for a simulation whose mules do not all record
// in global time order (patrol.Run's run-ahead mules): each mule
// appends its own visits in time order, one mule after another, so a
// target's log becomes a sequence of time-sorted runs. Append then
// takes a visit earlier than its target's last as the start of a new
// run instead of panicking, until MergeRuns merges every log's runs
// into one.
func (r *Recorder) AllowRuns() { r.runs = true }

// MergeRuns merges each log's time-sorted runs into one time-sorted
// log and makes Append strict again, as it is until AllowRuns. A log
// is the sorted multiset of its visit times, so the result is the log
// the visits would have made had they been appended in time order, bit
// for bit. A log that is one run already is left as it is.
func (r *Recorder) MergeRuns() {
	r.runs, r.merged = false, 0
	if r.breaks == 0 {
		return
	}
	buf := r.mergeBuffer()
	for i := 0; r.breaks > 0 && i < len(r.visits); i++ {
		n := mergeRuns(r.visits[i], buf)
		r.breaks -= n - 1
		r.merged = max(r.merged, n)
	}
	r.breaks = 0
}

// mergeBuffer returns room for the largest capacity of a log that holds
// several runs: the flat block's spare tail, past the logs, when a
// released recorder brought a block longer than this run needs, else
// the recorder's own buffer, grown when too short and kept for the
// runs that take the recorder again after Release.
func (r *Recorder) mergeBuffer() []float64 {
	if spare := r.flat[r.used:cap(r.flat)]; len(spare) >= r.longest {
		return spare
	}
	if len(r.scratch) < r.longest {
		r.scratch = make([]float64, r.longest)
	}
	return r.scratch
}

// Merged returns the most time-sorted runs the last MergeRuns merged
// into one log, or 0 when every log was one run.
func (r *Recorder) Merged() int { return r.merged }

// mergeRuns sorts ts, a sequence of time-sorted runs, and returns how
// many runs it held. Each pass merges adjacent pairs of runs from one
// of ts and buf into the other, halving the runs, whose ends it keeps
// in an array on the stack (which moves to the heap only past 130
// runs). buf must have room for ts unless ts is one run, which is left
// as it is; a buf too short is replaced by a new one.
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
	runs := len(ends)
	if len(buf) < len(ts) {
		buf = make([]float64, len(ts))
	}
	src, dst := ts, buf[:len(ts)]
	for len(ends) > 1 {
		lo, n := 0, 0
		for k := 0; k < len(ends); k += 2 {
			mid, hi := ends[k], ends[k]
			if k+1 < len(ends) {
				hi = ends[k+1]
			}
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			ends[n] = hi
			lo, n = hi, n+1
		}
		ends = ends[:n]
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
	return runs
}

// merge merges the time-sorted a and b into dst, which has room for
// both.
func merge(dst, a, b []float64) {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// orderError is Append's panic value; it formats only when printed,
// which keeps Append small enough to inline.
type orderError struct {
	target  int
	t, last float64
}

func (e orderError) Error() string {
	return fmt.Sprintf("metrics: visit to target %d at %v before its last visit at %v", e.target, e.t, e.last)
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

// visitsAfter returns the target's visits at or after t0. The log is
// time-ordered (OnVisit enforces it), so they are a suffix of it, and
// the consecutive differences of the suffix are the target's
// visiting intervals after t0.
func (r *Recorder) visitsAfter(target int, t0 float64) []float64 {
	ts := r.visits[target]
	return ts[sort.SearchFloat64s(ts, t0):]
}

// meanGap is stats.Mean of the consecutive differences of ts (0 for
// fewer than two visits). The differences are formed on the fly and
// summed in the order stats.Mean sums an interval slice, so the
// result is bit-identical to stats.Mean of the intervals without
// building the slice; the tests hold every aggregate to that
// slice-building oracle.
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
