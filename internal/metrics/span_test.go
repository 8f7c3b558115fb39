package metrics

import (
	"math"
	"slices"
	"testing"
)

// sameBits reports whether a and b hold the same floats, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// parkedLogs fills a recorder of three targets, or, with oracle, fills
// it one Append at a time, the way the parked-span fuzz target lays
// them out: target 0 holds the prior visits, then the parked run from
// t0 by step to end (as two AppendEvery calls when split, the second
// from where the first stopped), then the later visits; target 1 holds
// the prior visits alone, a log with no span; target 2 holds the
// parked run alone, from t0+step. With runs, target 0 also takes the
// prior visits again after the later ones, a second run for MergeRuns.
// It returns false when the parked run has more than limit visits, or
// a step the sum absorbs.
func parkedLogs(oracle, exact, split, runs bool, prior, later []float64, t0, step, end float64, limit int) (*Recorder, bool) {
	var caps []int
	if exact {
		caps = make([]int, 3)
	}
	park := func(r *Recorder, target int, from, to float64) (next float64, n int, ok bool) {
		if !oracle {
			next, n = r.AppendEvery(target, from, step, to)
			return next, n, true
		}
		return appendLoop(r, target, from, step, to, limit)
	}
	for pass := 0; pass < 2; pass++ {
		r := NewRecorderCap(3, caps)
		if runs {
			r.AllowRuns()
		}
		for _, v := range prior {
			r.Append(0, v)
			r.Append(1, v)
		}
		next, n, ok := t0, 0, true
		if split {
			next, n, ok = park(r, 0, t0, t0+(end-t0)/2)
		}
		if ok {
			var m int
			next, m, ok = park(r, 0, next, end)
			n += m
		}
		if !ok || n > limit {
			return nil, false
		}
		last := next
		for _, d := range later {
			last += d
			r.Append(0, last)
		}
		if runs {
			for _, v := range prior {
				r.Append(0, v)
			}
		}
		if _, _, ok := park(r, 2, t0+step, end); !ok {
			return nil, false
		}
		if caps == nil || pass == 1 {
			return r, true
		}
		for id := range caps { // size the second pass's logs exactly
			caps[id] = len(r.VisitTimes(id))
		}
	}
	panic("unreachable")
}

// FuzzParkedSpan holds the recorder's parked spans to a recorder filled
// one Append at a time, bit for bit. Before any write-out, every
// interval aggregate must match at cuts before, on, between and after
// the parked visits and at -Inf: AvgDCDTAfter, AvgSDAfter and
// MaxInterval, AvgDCDTAfterOver and AvgSDAfterOver on a subset with the
// parked target and on one without, and SD and SDAfter of each target,
// with the spans still unwritten; then the written-out logs must match
// through VisitTimes, through EventDCDTSeries on a recorder whose spans
// it writes out first, and after MergeRuns merges a log holding spans
// and a second run. The parked runs are not capped short of a span: up
// to 2^16 visits.
func FuzzParkedSpan(f *testing.F) {
	f.Add(131070.2, 0.3, 131100.0, []byte{1, 2, 3}, []byte{4, 9}, uint32(50), false, false, false)
	f.Add(0.0, 1.0, 5000.0, []byte{}, []byte{}, uint32(4200), true, true, false)
	f.Add(1000.25, 0.7, 40000.0, []byte{7, 7, 7}, []byte{1}, uint32(30000), false, true, true)
	f.Add(1048576.0, 0.5+0x1p-33, 1048676.0, []byte{2}, []byte{}, uint32(17), true, false, true)
	f.Add(12.0, 3.0, 400.0, []byte{1, 0xF3, 2}, []byte{0, 0, 3}, uint32(3), false, false, true)
	f.Add(5.0, 1.0, 60.0, []byte{}, []byte{}, uint32(9), false, true, false)
	f.Fuzz(func(t *testing.T, t0, step, end float64, priorB, laterB []byte, cut uint32, split, exact, runs bool) {
		if !(step > 0) || math.IsInf(step, 0) || math.IsNaN(t0) || math.IsInf(t0, 0) || !(t0 <= end) || math.IsInf(end, 0) {
			t.Skip("a parked run needs a positive step and finite times in order")
		}
		// The prior visits end at t0, the later ones follow the run.
		var prior, later []float64
		for _, r := range fuzzRuns(priorB) {
			for _, v := range r {
				prior = append(prior, t0-v)
			}
		}
		slices.Sort(prior)
		for _, b := range laterB {
			later = append(later, float64(b%8)/4)
		}
		want, ok := parkedLogs(true, exact, split, runs, prior, later, t0, step, end, 1<<16)
		if !ok {
			t.Skip("more than 2^16 visits, or a step the sum absorbs")
		}
		fill := func() *Recorder {
			r, _ := parkedLogs(false, exact, split, runs, prior, later, t0, step, end, 1<<16)
			return r
		}
		got := fill()
		if runs {
			got.MergeRuns()
			want.MergeRuns()
		}
		// Target 2's parked run, alone in its log, is a span from two
		// visits on, and stays one until a reader other than the
		// interval fold asks.
		ts := want.VisitTimes(2)
		spanned := func() bool {
			lo, hi := got.ownSpans(2)
			return hi > lo
		}
		if spanned() != (len(ts) >= 2) {
			t.Fatalf("%d parked visits, spans %v", len(ts), got.spans)
		}

		// The interval fold, read before any write-out.
		cuts := []float64{math.Inf(-1), t0 - 1, end + 1, t0, math.Nextafter(end, math.Inf(1))}
		if len(ts) > 0 {
			v := ts[int(cut)%len(ts)]
			cuts = append(cuts, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		parked, unparked := []int{2, 0}, []int{1}
		for _, c := range cuts {
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"AvgDCDTAfter", got.AvgDCDTAfter(c), want.AvgDCDTAfter(c)},
				{"AvgSDAfter", got.AvgSDAfter(c), want.AvgSDAfter(c)},
				{"MaxInterval", got.MaxInterval(), want.MaxInterval()},
				{"AvgDCDTAfterOver parked", got.AvgDCDTAfterOver(parked, c), want.AvgDCDTAfterOver(parked, c)},
				{"AvgSDAfterOver parked", got.AvgSDAfterOver(parked, c), want.AvgSDAfterOver(parked, c)},
				{"AvgDCDTAfterOver unparked", got.AvgDCDTAfterOver(unparked, c), want.AvgDCDTAfterOver(unparked, c)},
				{"AvgSDAfterOver unparked", got.AvgSDAfterOver(unparked, c), want.AvgSDAfterOver(unparked, c)},
				{"SD(0)", got.SD(0), want.SD(0)},
				{"SD(1)", got.SD(1), want.SD(1)},
				{"SD(2)", got.SD(2), want.SD(2)},
				{"SDAfter(0)", got.SDAfter(0, c), want.SDAfter(0, c)},
				{"SDAfter(1)", got.SDAfter(1, c), want.SDAfter(1, c)},
				{"SDAfter(2)", got.SDAfter(2, c), want.SDAfter(2, c)},
			} {
				if math.Float64bits(m.got) != math.Float64bits(m.want) {
					t.Fatalf("%s at cut %v = %v (%#x), one Append at a time %v (%#x)",
						m.name, c, m.got, math.Float64bits(m.got), m.want, math.Float64bits(m.want))
				}
			}
		}
		if len(ts) >= 2 && !spanned() {
			t.Fatal("an interval aggregate wrote a span out")
		}

		// The written-out logs.
		for id := 0; id < 3; id++ {
			if !sameBits(got.VisitTimes(id), want.VisitTimes(id)) {
				t.Fatalf("target %d logs %v, one Append at a time %v", id, got.VisitTimes(id), want.VisitTimes(id))
			}
		}
		if len(got.spans) != 0 {
			t.Fatalf("%d spans left after every log was read", len(got.spans))
		}
		got = fill()
		if runs {
			got.MergeRuns()
		}
		maxK := 1 + int(cut)%(2*len(ts)+3)
		if g, w := got.EventDCDTSeries(maxK), want.EventDCDTSeries(maxK); !sameBits(g, w) {
			t.Fatalf("EventDCDTSeries(%d) = %v, one Append at a time %v", maxK, g, w)
		}
		if g, w := got.SD(0), want.SD(0); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("SD(0) = %v, one Append at a time %v", g, w)
		}
	})
}
