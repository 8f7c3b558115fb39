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
//
// Every interval aggregate — AvgDCDTAfter, AvgSDAfter, their ...Over
// forms on a target subset, SD, SDAfter and MaxInterval — reads one
// fold over the logs (summary), which sums, squares and compares each
// interval in the order stats.Mean and stats.SampleSD would.
//
// A mule parked alone at one target visits it every dwell for the rest
// of the run. AppendEvery keeps such a run of visits as a span: the log
// holds only its first and last times, and a side list its count and
// step. The interval fold walks a span one binade segment at a time
// (stats.StepRuns and stats.AddN), where each interval and each partial
// sum is the one the written-out log gives, bit for bit. The readers of
// visit times — VisitTimes, EventDCDTSeries, MergeRuns on a log with
// breaks, and the window metrics FirstVisitAfter, TimeToRecoverOver and
// AvgMaxGapOver — write the span out on its first read, with the
// chained sums the mule's loop takes, so its bytes are what they would
// have been.
//
// Mules that run ahead of the event engine record one after another, so
// a target several of them share logs one time-sorted run per mule.
// After AllowRuns, Append takes such runs, and MergeRuns cuts every log
// at its descents and sorts it again before a metric reads it: in one
// gather when the runs interleave round-robin, as the visits of mules
// evenly spread over one circuit do, else pass after pass.
package metrics

import (
	"fmt"
	"math"
	"slices"
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
	// runs so started and not yet merged, and merged is the most runs
	// the last MergeRuns merged into one log.
	runs           bool
	breaks, merged int
	// segs and ends are MergeRuns' tables of one log's runs and of
	// their ends; they start in segBuf and endBuf, room for the paper
	// grid's largest fleet, 8 mules and the engine's, and are kept when
	// they grow, so a warm recorder's merge allocates none. fallbacks
	// counts the logs merged pass after pass rather than gathered (see
	// gather).
	ends      []int
	segs      []seg
	fallbacks int
	segBuf    [9]seg
	endBuf    [9]int
	// gaps is the fused gap summary of every log at one cut (see
	// summary), valid while gapsOK; every change to a log clears it.
	gaps   gapSummary
	gapsOK bool
	// spans are the runs of parked visits AppendEvery left unwritten,
	// in (target, at) order, held in spanBuf until they outgrow it: a
	// run with a mule parked at each of up to 8 targets, as many as the
	// paper grid's largest fleet, allocates none.
	spans   []span
	spanBuf [8]span
}

// span is a run of n ≥ 2 visits, a parked mule's: the first at the
// log's index at, each later one the one before plus step, summed one
// step at a time. The log holds only the first and the last, at at+1;
// the n−2 between them are written out when a reader needs them
// (writeOut).
type span struct {
	target, at, n int
	step          float64
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
// for caps[i] timestamps, so a simulation whose logs stay within them
// performs no recording allocations at all; a span (see AppendEvery)
// takes two, its stored ends, until a reader writes it out. The
// full-slice-expression cap means a target that outgrows its slot
// reallocates independently instead of clobbering its neighbour's
// slot, so the capacities affect only allocation behaviour, never
// recorded values. A nil caps means no preallocation; otherwise it
// must have one entry per target. The recorder reuses the log table,
// backing array and merge buffer of a released one (see Release) when
// there is one; with nil caps, each of its logs keeps its backing
// array and grows from the room it has.
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
	r.runs, r.breaks, r.merged, r.used, r.gapsOK = false, 0, 0, 0, false
	r.fallbacks = 0
	if r.spans == nil {
		r.spans, r.segs, r.ends = r.spanBuf[:0], r.segBuf[:0], r.endBuf[:0]
	}
	r.spans = r.spans[:0]
	keep := len(r.visits) // the last run's logs, pairwise disjoint
	if cap(r.visits) < nTargets {
		r.visits, keep = make([][]float64, nTargets), 0
	}
	r.visits = r.visits[:nTargets]
	if caps == nil {
		// Each log keeps its backing array, emptied, and grows from
		// there: a run without capacities (an online algorithm's)
		// starts from the room the last run's logs reached. An entry
		// past the last run's logs may point into memory a later log
		// of that run took, so it starts empty. A kept log may lie in
		// the flat block, so none of the block is spare for
		// mergeBuffer.
		for i := range r.visits {
			if i < keep {
				r.visits[i] = r.visits[i][:0]
			} else {
				r.visits[i] = nil
			}
		}
		r.used = len(r.flat)
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
// target's last visit as OnVisit does. It calls nothing, so it is
// small enough to inline.
func (r *Recorder) Append(target int, t float64) {
	ts := r.visits[target]
	if n := len(ts); n > 0 && t < ts[n-1] {
		if !r.runs {
			panic(orderError{target, t, ts[n-1]})
		}
		r.breaks++
	}
	r.visits[target] = append(ts, t)
	r.gapsOK = false
}

// AppendEvery appends to target's log the visits of a mule parked at
// it: t0, then each time the one before plus step — summed one step at
// a time, never t0 + k·step — while it is at or before t. It returns
// the first time past t and how many it appended, and appends exactly
// what Append would, called on each time in turn: a t0 earlier than the
// log's last visit starts a run, or panics. step must be positive, and
// must move the time: a step the sum absorbs before t panics.
//
// It counts the visits one binade segment at a time (stats.StepRuns),
// and keeps a run of two or more as a span: the log gets only the first
// and the last time, as Append's order check needs, so two entries of
// capacity hold the run whatever its length, and the rest are written
// out when a reader other than the interval fold asks (see VisitTimes).
func (r *Recorder) AppendEvery(target int, t0, step, t float64) (next float64, n int) {
	if !(step > 0) {
		panic(fmt.Sprintf("metrics: AppendEvery step %v", step))
	}
	if !(t0 <= t) {
		return t0, 0
	}
	ts := r.visits[target]
	if k := len(ts); k > 0 && t0 < ts[k-1] {
		if !r.runs {
			panic(orderError{target, t0, ts[k-1]})
		}
		r.breaks++
	}
	r.gapsOK = false
	last := t0
	n = 1
	stats.StepRuns(t0, step, math.MaxInt, func(iv, base float64, k int) bool {
		if !(iv > 0) {
			panic(fmt.Sprintf("metrics: AppendEvery step %v absorbed at %v", step, base))
		}
		// The run's later ends are base + (i+1)·iv for i < k.
		i := sort.Search(k, func(i int) bool { return !(base+float64(float64(i+1)*iv) <= t) })
		n += i
		if i == k {
			return true
		}
		last = base + float64(float64(i)*iv)
		return false
	})
	if n == 1 {
		r.visits[target] = append(ts, t0)
		return t0 + step, 1
	}
	r.visits[target] = append(ts, t0, last)
	i := len(r.spans)
	for i > 0 && r.spans[i-1].target > target {
		i--
	}
	r.spans = slices.Insert(r.spans, i, span{target: target, at: len(ts), n: n, step: step})
	return last + step, n
}

// ownSpans returns the spans of target's log, a range of r.spans.
func (r *Recorder) ownSpans(target int) (lo, hi int) {
	for lo < len(r.spans) && r.spans[lo].target < target {
		lo++
	}
	for hi = lo; hi < len(r.spans) && r.spans[hi].target == target; hi++ {
	}
	return lo, hi
}

// writeOut writes target's spans out into its log, each visit the one
// before plus the step, as the parked mule's loop sums them, and drops
// them: the log then holds every visit, as Append would have left it.
// It moves the log's later visits up in place when its capacity allows,
// which a recorder sized by NewRecorderCap's capacities does.
func (r *Recorder) writeOut(target int) {
	lo, hi := r.ownSpans(target)
	if lo == hi {
		return
	}
	ts := r.visits[target]
	src, grow := len(ts), 0
	for _, sp := range r.spans[lo:hi] {
		grow += sp.n - 2
	}
	ts = slices.Grow(ts, grow)[:src+grow]
	end := len(ts)
	for i := hi - 1; i >= lo; i-- {
		sp := r.spans[i]
		end -= copy(ts[end-(src-sp.at-2):end], ts[sp.at+2:src])
		x := ts[sp.at]
		for j := end - sp.n; j < end; j++ {
			ts[j] = x
			x += sp.step
		}
		end, src = end-sp.n, sp.at
	}
	r.visits[target] = ts
	r.spans = slices.Delete(r.spans, lo, hi)
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
//
// Each log is cut into runs at its descents, where a visit is earlier
// than the one before. Runs that interleave round-robin are then
// gathered in one pass (gather), and only the logs whose runs do not
// are merged pass after pass.
func (r *Recorder) MergeRuns() {
	r.runs, r.merged, r.gapsOK = false, 0, false
	if r.breaks == 0 {
		return
	}
	// A span lies inside one run, so a log with a descent has runs to
	// merge, and its spans are written out first.
	for i := 0; i < len(r.spans); {
		if t := r.spans[i].target; !slices.IsSorted(r.visits[t]) {
			r.writeOut(t) // drops t's spans, the next one's at i
			continue
		}
		i++
	}
	buf := r.mergeBuffer(r.longest())
	for t := 0; r.breaks > 0 && t < len(r.visits); t++ {
		n := r.mergeLog(t, buf)
		r.breaks -= n - 1
		r.merged = max(r.merged, n)
	}
	r.breaks = 0
}

// longest returns the largest capacity of a log.
func (r *Recorder) longest() int {
	n := 0
	for _, ts := range r.visits {
		n = max(n, cap(ts))
	}
	return n
}

// mergeBuffer returns room for n visits, the largest capacity of a
// log: the flat block's spare tail, past the logs, when a released
// recorder brought a block longer than this run needs, else the
// recorder's own buffer, grown when too short and kept for the runs
// that take the recorder again after Release.
func (r *Recorder) mergeBuffer(n int) []float64 {
	if spare := r.flat[r.used:cap(r.flat)]; len(spare) >= n {
		return spare
	}
	if len(r.scratch) < n {
		r.scratch = make([]float64, n)
	}
	return r.scratch
}

// Merged returns the most time-sorted runs the last MergeRuns merged
// into one log, or 0 when every log was one run.
func (r *Recorder) Merged() int { return r.merged }

// seg is a run of a log: n visits from index at.
type seg struct{ at, n int }

// mergeLog sorts target's log, using buf, which has room for it, and
// returns how many time-sorted runs it held. It cuts the log into runs
// at its descents and sorts them by gather when they interleave
// round-robin, else pass after pass over their ends.
func (r *Recorder) mergeLog(target int, buf []float64) int {
	ts := r.visits[target]
	segs, ends := r.segs[:0], r.ends[:0]
	at := 0
	for p := descent(ts, 1); p < len(ts); p = descent(ts, p+1) {
		segs, ends, at = append(segs, seg{at, p - at}), append(ends, p), p
	}
	if len(ends) == 0 {
		return 1
	}
	segs, ends = append(segs, seg{at, len(ts) - at}), append(ends, len(ts))
	r.segs, r.ends = segs, ends
	if !gather(ts, buf, segs) {
		r.fallbacks++
		mergeEnds(ts, buf, ends)
	}
	return len(ends)
}

// descent returns the first index from p ≥ 1 on whose visit is earlier
// than the one before, or len(ts) when there is none. It compares four
// pairs per branch, which halves the time of the scan: a log's runs are
// long, so its descents are rare.
func descent(ts []float64, p int) int {
	for ; p+4 <= len(ts); p += 4 {
		if q := ts[p-1 : p+4]; q[1] < q[0] || q[2] < q[1] || q[3] < q[2] || q[4] < q[3] {
			break
		}
	}
	for ; p < len(ts) && !(ts[p] < ts[p-1]); p++ {
	}
	return p
}

// gather sorts ts, cut into the time-sorted runs segs, in one pass
// when the runs interleave round-robin, as the visits of mules evenly
// spread over one circuit do: ordered by their first visits, each run
// holds as many visits as the next or one more, and the r-th visit of
// each run comes before the r-th of the next and, for the last run,
// before the (r+1)-th of the first. Then the merge is ts[segs[0].at],
// ts[segs[1].at], …, ts[segs[0].at+1], …, which gather writes into buf,
// checking each visit against the one before; a sorted result is the
// merge, since a log's sorted multiset is unique, and gather copies it
// back. It reports whether it did, leaving ts as it was when not.
func gather(ts, buf []float64, segs []seg) bool {
	for i := 1; i < len(segs); i++ { // by first visit, stably
		s, j := segs[i], i
		for ; j > 0 && ts[s.at] < ts[segs[j-1].at]; j-- {
			segs[j] = segs[j-1]
		}
		segs[j] = s
	}
	short, long := segs[len(segs)-1].n, 0
	for i, s := range segs {
		if s.n > short+1 || (i > 0 && s.n > segs[i-1].n) {
			return false
		}
		if s.n > short {
			long++
		}
	}
	out := buf[:len(ts)]
	last, k := ts[segs[0].at], 0
	for r := 0; r <= short; r++ {
		if r == short {
			segs = segs[:long]
		}
		for _, s := range segs {
			v := ts[s.at+r]
			if v < last {
				return false
			}
			out[k], last, k = v, v, k+1
		}
	}
	copy(ts, out)
	return true
}

// mergeEnds sorts ts, whose time-sorted runs end at ends, in buf, which
// has room for it. Each pass merges adjacent pairs of runs from one of
// ts and buf into the other, halving the runs, whose ends it keeps in
// ends.
func mergeEnds(ts, buf []float64, ends []int) {
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
// so Append builds it without a call.
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

// VisitTimes returns the visit timestamps of target in order: the
// recorder's own log, which the caller must not modify. Its first call
// on a target with a span (see AppendEvery) writes the span out, which
// grows the log: a log sized for the span's two stored ends (see
// NewRecorderCap) reallocates then. No interval aggregate calls it.
func (r *Recorder) VisitTimes(target int) []float64 {
	if len(r.spans) > 0 {
		r.writeOut(target)
	}
	return r.visits[target]
}

// visitsAfter returns the target's visits at or after t0. The log is
// time-ordered (OnVisit enforces it), so they are a suffix of it, and
// the consecutive differences of the suffix are the target's
// visiting intervals after t0.
func (r *Recorder) visitsAfter(target int, t0 float64) []float64 {
	ts := r.VisitTimes(target)
	return ts[sort.SearchFloat64s(ts, t0):]
}

// SD returns the paper's per-target SD metric: the sample standard
// deviation of the target's consecutive visiting intervals
// (SD = sqrt(1/(n−1)·Σ(t_k − t̄)²) over the n intervals). Targets with
// fewer than two intervals yield 0.
func (r *Recorder) SD(target int) float64 { return r.SDAfter(target, math.Inf(-1)) }

// SDAfter is SD restricted to visits at or after t0.
func (r *Recorder) SDAfter(target int, t0 float64) float64 {
	return r.summary([]int{target}, t0).avgSD
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

// gapSummary is what the interval aggregates read of a subset of the
// logs at one cut t0: the average over the subset's targets of the mean
// and of the SD of their visiting intervals at or after t0
// (AvgDCDTAfterOver and AvgSDAfterOver, and SDAfter for a subset of
// one), and the longest interval of any of their whole logs
// (MaxInterval).
type gapSummary struct{ t0, avgDCDT, avgSD, max float64 }

// summary folds the logs of the subset targets (nil = every log, in
// target order) at cut t0. It walks each log once, forming each
// interval once for the whole-log maximum and, past the cut, for the
// mean, then walks the steady-state suffix again for the SD with that
// mean: stats.Mean and stats.SampleSD of the log's intervals past the
// cut, summed, squared and compared in their order, so each aggregate
// is bit-identical to the slice-building definition (the tests' oracle
// passes). A log with spans is walked in runs of equal intervals (see
// spanRuns), which leaves its spans unwritten. The summary of every log
// is cached: it comes from the cache when that holds the summary at t0.
func (r *Recorder) summary(targets []int, t0 float64) gapSummary {
	if targets == nil && r.gapsOK && r.gaps.t0 == t0 {
		return r.gaps
	}
	var dcdt, sd stats.Accumulator
	most := 0.0
	r.eachTarget(targets, func(target int) {
		ts := r.visits[target]
		var own []span
		if len(r.spans) > 0 {
			lo, hi := r.ownSpans(target)
			own = r.spans[lo:hi]
		}
		var s float64
		var n int // the intervals past the cut
		if len(own) > 0 {
			s, n = spannedSum(ts, own, t0, &most)
		} else {
			k := sort.SearchFloat64s(ts, t0)
			for i := 1; i <= k && i < len(ts); i++ {
				if iv := ts[i] - ts[i-1]; iv > most {
					most = iv
				}
			}
			for i := k + 1; i < len(ts); i++ {
				iv := ts[i] - ts[i-1]
				if iv > most {
					most = iv
				}
				s += iv
			}
			n = len(ts) - k - 1
		}
		if n < 1 {
			return
		}
		m := s / float64(n)
		dcdt.Add(m)
		if n < 2 {
			return
		}
		if len(own) > 0 {
			s = spannedSquares(ts, own, t0, m)
		} else {
			s = 0
			for i := len(ts) - n; i < len(ts); i++ {
				d := ts[i] - ts[i-1] - m
				s += float64(d * d) // rounded, never fused into the add
			}
		}
		sd.Add(math.Sqrt(s / float64(n-1)))
	})
	g := gapSummary{t0: t0, avgDCDT: dcdt.Mean(), avgSD: sd.Mean(), max: most}
	if targets == nil {
		r.gaps, r.gapsOK = g, true
	}
	return g
}

// spanRuns calls fold with the intervals of a log holding spans, own,
// in order, as runs of equal intervals: the run (iv, base, n) is n
// intervals of iv whose earlier ends are base + i·iv, exactly, for
// i < n. Between two stored times that are no span's ends, a run is
// one interval; a span's runs are its binade segments (stats.StepRuns).
func spanRuns(ts []float64, own []span, fold func(iv, base float64, n int)) {
	yield := func(iv, base float64, n int) bool {
		fold(iv, base, n)
		return true
	}
	at := 0
	for _, sp := range own {
		for i := at + 1; i <= sp.at; i++ {
			fold(ts[i]-ts[i-1], ts[i-1], 1)
		}
		stats.StepRuns(ts[sp.at], sp.step, sp.n-1, yield)
		at = sp.at + 1
	}
	for i := at + 1; i < len(ts); i++ {
		fold(ts[i]-ts[i-1], ts[i-1], 1)
	}
}

// pastCut returns how many intervals of the run (iv, base, n) lie past
// the cut t0, those whose earlier end is at or after it, as
// sort.SearchFloat64s places the cut in a log.
func pastCut(iv, base float64, n int, t0 float64) int {
	return n - sort.Search(n, func(i int) bool { return base+float64(float64(i)*iv) >= t0 })
}

// spannedSum is summary's first pass over a log with spans: it raises
// *most to the log's longest interval and returns the sum and count of
// the intervals past the cut, each run past it added in one
// stats.AddN, which is the sum one interval at a time.
func spannedSum(ts []float64, own []span, t0 float64, most *float64) (s float64, n int) {
	spanRuns(ts, own, func(iv, base float64, k int) {
		if iv > *most {
			*most = iv
		}
		if k = pastCut(iv, base, k, t0); k > 0 {
			s, n = stats.AddN(s, iv, k), n+k
		}
	})
	return s, n
}

// spannedSquares is summary's second pass over a log with spans: the
// sum of the squared deviations from m of the intervals past the cut.
func spannedSquares(ts []float64, own []span, t0, m float64) (s float64) {
	spanRuns(ts, own, func(iv, base float64, k int) {
		if k = pastCut(iv, base, k, t0); k > 0 {
			d := iv - m
			s = stats.AddN(s, float64(d*d), k)
		}
	})
	return s
}

// AvgSD returns the SD metric averaged over all targets that have at
// least two intervals — the z-axis of Figs. 8 and 10.
func (r *Recorder) AvgSD() float64 { return r.AvgSDAfter(math.Inf(-1)) }

// AvgSDAfter is AvgSD restricted to visits at or after t0.
func (r *Recorder) AvgSDAfter(t0 float64) float64 { return r.AvgSDAfterOver(nil, t0) }

// AvgSDAfterOver is AvgSDAfter restricted to a target subset (nil =
// all targets).
func (r *Recorder) AvgSDAfterOver(targets []int, t0 float64) float64 {
	return r.summary(targets, t0).avgSD
}

// AvgDCDT returns the mean visiting interval averaged over all targets
// with at least one interval — the z-axis of Fig. 9.
func (r *Recorder) AvgDCDT() float64 { return r.AvgDCDTAfter(math.Inf(-1)) }

// AvgDCDTAfter is AvgDCDT restricted to visits at or after t0.
func (r *Recorder) AvgDCDTAfter(t0 float64) float64 { return r.AvgDCDTAfterOver(nil, t0) }

// AvgDCDTAfterOver is AvgDCDTAfter restricted to a target subset
// (nil = all targets).
func (r *Recorder) AvgDCDTAfterOver(targets []int, t0 float64) float64 {
	return r.summary(targets, t0).avgDCDT
}

// MaxInterval returns the maximal visiting interval over all targets
// and intervals — the quantity the paper's problem statement
// minimizes ("the goal ... is to minimize the maximal visiting
// interval"). Returns 0 when no target has two visits. It reads the
// cached gap summary, whatever its cut, and computes a whole-log one
// when there is none.
func (r *Recorder) MaxInterval() float64 {
	if r.gapsOK {
		return r.gaps.max
	}
	return r.summary(nil, math.Inf(-1)).max
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
	for len(r.spans) > 0 {
		r.writeOut(r.spans[0].target)
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
