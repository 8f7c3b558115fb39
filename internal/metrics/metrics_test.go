package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tctp/internal/stats"
	"tctp/internal/xrand"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBasicRecording(t *testing.T) {
	r := NewRecorderCap(3, nil)
	if r.NumTargets() != 3 {
		t.Fatalf("NumTargets = %d", r.NumTargets())
	}
	r.OnVisit(0, 1, 10)
	r.OnVisit(1, 1, 25)
	r.OnVisit(0, 2, 5)
	if len(r.VisitTimes(1)) != 2 || len(r.VisitTimes(2)) != 1 || len(r.VisitTimes(0)) != 0 {
		t.Fatal("visit counts wrong")
	}
	ts := r.VisitTimes(1)
	if len(ts) != 2 || ts[0] != 10 || ts[1] != 25 {
		t.Fatalf("VisitTimes = %v", ts)
	}
}

func TestIntervals(t *testing.T) {
	r := NewRecorderCap(2, nil)
	for _, at := range []float64{10, 30, 60, 100} {
		r.OnVisit(0, 0, at)
	}
	iv := r.Intervals(0)
	want := []float64{20, 30, 40}
	if len(iv) != 3 {
		t.Fatalf("Intervals = %v", iv)
	}
	for i := range want {
		if !almost(iv[i], want[i]) {
			t.Fatalf("Intervals = %v", iv)
		}
	}
	if r.Intervals(1) != nil {
		t.Fatal("unvisited target has intervals")
	}
	r.OnVisit(0, 1, 5)
	if r.Intervals(1) != nil {
		t.Fatal("single visit has intervals")
	}
}

func TestIntervalsAfter(t *testing.T) {
	r := NewRecorderCap(1, nil)
	for _, at := range []float64{0, 100, 200, 300} {
		r.OnVisit(0, 0, at)
	}
	iv := r.IntervalsAfter(0, 100)
	if len(iv) != 2 || !almost(iv[0], 100) || !almost(iv[1], 100) {
		t.Fatalf("IntervalsAfter = %v", iv)
	}
	if got := r.IntervalsAfter(0, 300); got != nil {
		t.Fatalf("IntervalsAfter(300) = %v", got)
	}
	// Boundary inclusive.
	if got := r.IntervalsAfter(0, 200); len(got) != 1 {
		t.Fatalf("IntervalsAfter(200) = %v", got)
	}
}

func TestSDPaperFormula(t *testing.T) {
	r := NewRecorderCap(1, nil)
	// Visits 0, 10, 30: intervals 10, 20 → mean 15, sample SD
	// sqrt(((10-15)²+(20-15)²)/1) = sqrt(50).
	for _, at := range []float64{0, 10, 30} {
		r.OnVisit(0, 0, at)
	}
	if sd := r.SD(0); !almost(sd, math.Sqrt(50)) {
		t.Fatalf("SD = %v, want %v", sd, math.Sqrt(50))
	}
}

func TestSDConstantIntervalsIsZero(t *testing.T) {
	// The B-TCTP steady state: perfectly periodic visits → SD 0.
	r := NewRecorderCap(1, nil)
	for k := 0; k < 50; k++ {
		r.OnVisit(0, 0, float64(k)*137.5)
	}
	if sd := r.SD(0); !almost(sd, 0) {
		t.Fatalf("constant-interval SD = %v", sd)
	}
}

func TestMeanInterval(t *testing.T) {
	r := NewRecorderCap(1, nil)
	for _, at := range []float64{0, 10, 30} {
		r.OnVisit(0, 0, at)
	}
	if m := meanGap(r.VisitTimes(0)); !almost(m, 15) {
		t.Fatalf("mean interval = %v", m)
	}
}

func TestAvgSDAndAvgDCDT(t *testing.T) {
	r := NewRecorderCap(3, nil)
	// Target 0: intervals 10, 10 (SD 0, mean 10).
	for _, at := range []float64{0, 10, 20} {
		r.OnVisit(0, 0, at)
	}
	// Target 1: intervals 10, 30 (SD sqrt(200), mean 20).
	for _, at := range []float64{0, 10, 40} {
		r.OnVisit(0, 1, at)
	}
	// Target 2: one visit only — excluded from both aggregates.
	r.OnVisit(0, 2, 5)

	wantSD := (0 + math.Sqrt(200)) / 2
	if got := r.AvgSD(); !almost(got, wantSD) {
		t.Fatalf("AvgSD = %v, want %v", got, wantSD)
	}
	if got := r.AvgDCDT(); !almost(got, 15) {
		t.Fatalf("AvgDCDT = %v, want 15", got)
	}
}

func TestAvgAfterVariants(t *testing.T) {
	r := NewRecorderCap(1, nil)
	// Transient: erratic until t=100; steady period 50 after.
	for _, at := range []float64{0, 7, 100, 150, 200, 250} {
		r.OnVisit(0, 0, at)
	}
	if sd := r.AvgSDAfter(100); !almost(sd, 0) {
		t.Fatalf("steady-state SD = %v", sd)
	}
	if m := r.AvgDCDTAfter(100); !almost(m, 50) {
		t.Fatalf("steady-state DCDT = %v", m)
	}
	if sd := r.SDAfter(0, 100); !almost(sd, 0) {
		t.Fatalf("SDAfter = %v", sd)
	}
}

func TestMaxInterval(t *testing.T) {
	r := NewRecorderCap(2, nil)
	for _, at := range []float64{0, 10, 20} {
		r.OnVisit(0, 0, at)
	}
	for _, at := range []float64{0, 55} {
		r.OnVisit(0, 1, at)
	}
	if m := r.MaxInterval(); !almost(m, 55) {
		t.Fatalf("MaxInterval = %v", m)
	}
	empty := NewRecorderCap(1, nil)
	if m := empty.MaxInterval(); m != 0 {
		t.Fatalf("empty MaxInterval = %v", m)
	}
}

func TestPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewRecorderCap(0, nil) did not panic")
			}
		}()
		NewRecorderCap(0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range visit did not panic")
			}
		}()
		NewRecorderCap(2, nil).OnVisit(0, 5, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative target did not panic")
			}
		}()
		NewRecorderCap(2, nil).OnVisit(0, -1, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("visit earlier than the target's last visit did not panic")
			}
		}()
		r := NewRecorderCap(2, nil)
		r.OnVisit(0, 0, 5)
		r.OnVisit(0, 1, 3) // another target's clock is independent
		r.OnVisit(0, 0, 5) // a repeated timestamp is in order
		r.OnVisit(0, 0, 4)
	}()
	func() {
		const want = "metrics: visit to target 1 at 4 before its last visit at 5"
		defer func() {
			err, ok := recover().(error)
			if !ok || err.Error() != want {
				t.Fatalf("out-of-order Append panicked with %v, want %q", err, want)
			}
		}()
		r := NewRecorderCap(2, nil)
		r.OnVisit(0, 1, 5)
		r.Append(1, 5)
		r.Append(1, 4)
	}()
}

// TestRecorderRelease: a recorder released and taken again by
// NewRecorderCap for another shape starts with every log empty, carved
// to the new capacities, and records exactly what it is given.
// Goroutines share the released recorders.
func TestRecorderRelease(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			src := xrand.New(uint64(g))
			for i := 0; i < 50; i++ {
				n := 1 + src.Intn(6)
				var caps []int
				if src.Intn(4) > 0 {
					caps = make([]int, n)
					for j := range caps {
						caps[j] = src.Intn(5)
					}
				}
				r := NewRecorderCap(n, caps)
				for id := 0; id < n; id++ {
					if got := r.VisitTimes(id); len(got) != 0 || caps != nil && cap(got) != caps[id] {
						t.Errorf("target %d of a reused recorder starts with %v (cap %d), capacities %v",
							id, got, cap(got), caps)
					}
				}
				want := make([][]float64, n)
				for k := src.Intn(20); k > 0; k-- {
					id, at := src.Intn(n), -float64(k)
					r.OnVisit(0, id, at)
					want[id] = append(want[id], at)
				}
				for id := 0; id < n; id++ {
					if !slices.Equal(r.VisitTimes(id), want[id]) {
						t.Errorf("target %d: recorded %v, want %v", id, r.VisitTimes(id), want[id])
					}
				}
				Release(r)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// Property: for any monotone visit sequence, intervals are positive
// and sum to last − first.
func TestIntervalTelescopeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		r := NewRecorderCap(1, nil)
		t0 := 0.0
		var first, last float64
		for i, d := range raw {
			t0 += float64(d) + 1 // strictly increasing
			if i == 0 {
				first = t0
			}
			last = t0
			r.OnVisit(0, 0, t0)
		}
		iv := r.Intervals(0)
		sum := 0.0
		for _, x := range iv {
			if x <= 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-(last-first)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventDCDTSeries(t *testing.T) {
	r := NewRecorderCap(2, nil)
	// Target 0 visits at 0, 10, 30 (intervals 10 at t=10, 20 at t=30).
	for _, at := range []float64{0, 10, 30} {
		r.OnVisit(0, 0, at)
	}
	// Target 1 visits at 5, 20 (interval 15 at t=20).
	for _, at := range []float64{5, 20} {
		r.OnVisit(0, 1, at)
	}
	got := r.EventDCDTSeries(10)
	// Time-ordered events: t=10 (iv 10), t=20 (iv 15), t=30 (iv 20).
	want := []float64{10, 15, 20}
	if len(got) != len(want) {
		t.Fatalf("EventDCDTSeries = %v", got)
	}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("EventDCDTSeries = %v, want %v", got, want)
		}
	}
	// maxK truncation.
	if got := r.EventDCDTSeries(2); len(got) != 2 || !almost(got[1], 15) {
		t.Fatalf("truncated series = %v", got)
	}
	// Empty recorder.
	if got := NewRecorderCap(1, nil).EventDCDTSeries(5); len(got) != 0 {
		t.Fatalf("empty series = %v", got)
	}
}

func TestEventDCDTSeriesConstantForPeriodic(t *testing.T) {
	r := NewRecorderCap(3, nil)
	// Three targets on a perfectly periodic schedule (the B-TCTP
	// steady state): every event interval is identical.
	for target := 0; target < 3; target++ {
		for k := 0; k < 10; k++ {
			r.OnVisit(0, target, float64(target)*33.3+float64(k)*100)
		}
	}
	s := r.EventDCDTSeries(25)
	for _, iv := range s {
		if !almost(iv, 100) {
			t.Fatalf("periodic schedule produced varying event DCDT: %v", s)
		}
	}
}

// TestOverSubsetMetrics: the ...Over variants restrict the classic
// metrics to a target subset, and the nil subset reproduces the
// global values exactly.
func TestOverSubsetMetrics(t *testing.T) {
	r := NewRecorderCap(3, nil)
	// Target 0: intervals 10, 10. Target 1: intervals 20, 40.
	// Target 2: one visit, no interval.
	for _, v := range []struct {
		target int
		t      float64
	}{
		{0, 0}, {0, 10}, {0, 20},
		{1, 0}, {1, 20}, {1, 60},
		{2, 5},
	} {
		r.OnVisit(0, v.target, v.t)
	}

	if got, want := r.dcdtPass(nil, math.Inf(-1)), r.AvgDCDT(); got != want {
		t.Fatalf("dcdtPass(nil) = %v, AvgDCDT = %v", got, want)
	}
	if got := r.AvgDCDTAfterOver([]int{0}, math.Inf(-1)); got != 10 {
		t.Fatalf("AvgDCDTAfterOver({0}, -Inf) = %v, want 10", got)
	}
	if got := r.AvgDCDTAfterOver([]int{1}, math.Inf(-1)); got != 30 {
		t.Fatalf("AvgDCDTAfterOver({1}, -Inf) = %v, want 30", got)
	}
	if got := r.AvgDCDTAfterOver([]int{2}, math.Inf(-1)); got != 0 {
		t.Fatalf("AvgDCDTAfterOver({2}, -Inf) = %v, want 0 (no interval)", got)
	}
	if got := r.MaxIntervalOver([]int{0}); got != 10 {
		t.Fatalf("MaxIntervalOver({0}) = %v", got)
	}
	if got, want := r.MaxIntervalOver(nil), r.MaxInterval(); got != want {
		t.Fatalf("MaxIntervalOver(nil) = %v, MaxInterval = %v", got, want)
	}
	if got := r.AvgSDAfterOver([]int{0}, math.Inf(-1)); got != 0 {
		t.Fatalf("AvgSDAfterOver({0}, -Inf) = %v, want 0 (constant intervals)", got)
	}
	if got, want := r.AvgSDAfterOver(nil, 0), r.AvgSDAfter(0); got != want {
		t.Fatalf("AvgSDAfterOver(nil) = %v, AvgSDAfter = %v", got, want)
	}
	// After t0=15, target 0 keeps visit 20 only → no interval; target
	// 1 keeps visits 20, 60 → one interval of 40.
	if got := r.AvgDCDTAfterOver([]int{0, 1}, 15); got != 40 {
		t.Fatalf("AvgDCDTAfterOver({0,1}, 15) = %v, want 40", got)
	}
}

// Degraded-mode windows: FirstVisitAfter, TimeToRecoverOver, and the
// coverage-gap family, including the censored (never revisited) and
// empty-window edges.
func TestDegradedModeWindows(t *testing.T) {
	r := NewRecorderCap(3, nil)
	// target 0: visits at 10, 20, 80; target 1: visit at 5 only;
	// target 2: never visited.
	r.OnVisit(0, 0, 10)
	r.OnVisit(0, 0, 20)
	r.OnVisit(0, 0, 80)
	r.OnVisit(0, 1, 5)

	if got := r.FirstVisitAfter(0, 15); got != 20 {
		t.Fatalf("FirstVisitAfter(0,15) = %v, want 20", got)
	}
	if got := r.FirstVisitAfter(0, 20); got != 20 {
		t.Fatalf("FirstVisitAfter(0,20) = %v, want 20 (at-or-after)", got)
	}
	if got := r.FirstVisitAfter(1, 10); got != -1 {
		t.Fatalf("FirstVisitAfter(1,10) = %v, want -1", got)
	}
	if got := r.FirstVisitAfter(2, 0); got != -1 {
		t.Fatalf("FirstVisitAfter(2,0) = %v, want -1", got)
	}

	// Recovery from t0=30 to horizon 100: target 0 recovers at 80
	// (50 s), targets 1 and 2 never — censored at 70 s.
	if got := r.TimeToRecoverOver(nil, 30, 100); got != 70 {
		t.Fatalf("TimeToRecoverOver(nil,30,100) = %v, want 70 (censored)", got)
	}
	if got := r.TimeToRecoverOver([]int{0}, 30, 100); got != 50 {
		t.Fatalf("TimeToRecoverOver({0},30,100) = %v, want 50", got)
	}

	// Max gap in [30, 100]: target 0's is 30→80 = 50 (window edges
	// count); unvisited target 2 spans the whole window.
	if got := r.AvgMaxGapOver([]int{0}, 30, 100); got != 50 {
		t.Fatalf("AvgMaxGapOver({0},30,100) = %v, want 50", got)
	}
	if got := r.AvgMaxGapOver([]int{2}, 30, 100); got != 70 {
		t.Fatalf("AvgMaxGapOver({2},30,100) = %v, want 70", got)
	}
	// AvgMaxGapOver is the per-target mean: (50 + 70 + 70) / 3.
	want := (50.0 + 70 + 70) / 3
	if got := r.AvgMaxGapOver(nil, 30, 100); got != want {
		t.Fatalf("AvgMaxGapOver(nil,30,100) = %v, want %v", got, want)
	}
	// Degenerate window.
	if got := r.AvgMaxGapOver(nil, 100, 100); got != 0 {
		t.Fatalf("AvgMaxGapOver(nil,100,100) = %v, want 0", got)
	}
}

// TestInPlaceAggregatesMatchIntervalOracle holds every aggregate the
// Recorder computes in place to the slice-building definition it
// replaced — Intervals/IntervalsAfter fed to stats.Mean and
// stats.SampleSD and folded in target order — bit for bit, over
// seeded random visit logs. The logs have 0–3 visits per target most
// of the time (the 0-, 1- and 2-interval edge cases) and up to 12
// otherwise, repeated timestamps, and non-integral times so that
// every sum rounds; t0 falls before the first visit, on a visit,
// between visits and after the last one.
func TestInPlaceAggregatesMatchIntervalOracle(t *testing.T) {
	src := xrand.New(13)
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v (%#x), oracle %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + src.Intn(6)
		r := NewRecorderCap(n, nil)
		var times []float64
		for target := 0; target < n; target++ {
			visits := src.Intn(4)
			if src.Float64() < 0.3 {
				visits = 4 + src.Intn(9)
			}
			at := src.Range(0, 500)
			for v := 0; v < visits; v++ {
				if v > 0 && src.Float64() >= 0.2 { // else a repeated timestamp
					at += src.Range(0.1, 300)
				}
				r.OnVisit(0, target, at)
				times = append(times, at)
			}
		}
		t0 := src.Range(-100, 2000) // usually between visits or past them all
		if len(times) > 0 {
			switch src.Intn(4) {
			case 0:
				t0 = times[src.Intn(len(times))] // exactly on a visit
			case 1:
				t0 = slices.Min(times) - 1 // before every first visit
			case 2:
				t0 = slices.Max(times) + 1 // after every last visit
			}
		}
		var subset, all []int // a nil subset means every target
		for target := 0; target < n; target++ {
			all = append(all, target)
			if src.Float64() < 0.5 {
				subset = append(subset, target)
			}
		}
		members := func(targets []int) []int {
			if targets == nil {
				return all
			}
			return targets
		}

		ivs := func(target int, after bool) []float64 {
			if after {
				return r.IntervalsAfter(target, t0)
			}
			return r.Intervals(target)
		}
		type fold func(iv []float64) (float64, bool)
		meanFold := func(iv []float64) (float64, bool) { return stats.Mean(iv), len(iv) > 0 }
		sdFold := func(iv []float64) (float64, bool) { return stats.SampleSD(iv), len(iv) >= 2 }
		avg := func(targets []int, after bool, f fold) float64 {
			var acc stats.Accumulator
			for _, target := range members(targets) {
				if x, ok := f(ivs(target, after)); ok {
					acc.Add(x)
				}
			}
			return acc.Mean()
		}
		maxIv := func(targets []int) float64 {
			m := 0.0
			for _, target := range members(targets) {
				for _, iv := range r.Intervals(target) {
					m = math.Max(m, iv)
				}
			}
			return m
		}

		for target := 0; target < n; target++ {
			same("SD", r.SD(target), stats.SampleSD(r.Intervals(target)))
			same("SDAfter", r.SDAfter(target, t0), stats.SampleSD(r.IntervalsAfter(target, t0)))
			same("meanGap", meanGap(r.VisitTimes(target)), stats.Mean(r.Intervals(target)))
			first := -1.0
			for _, v := range r.VisitTimes(target) {
				if v >= t0 {
					first = v
					break
				}
			}
			same("FirstVisitAfter", r.FirstVisitAfter(target, t0), first)
		}
		same("AvgSD", r.AvgSD(), avg(nil, false, sdFold))
		same("AvgSDAfterOver at -Inf", r.AvgSDAfterOver(subset, math.Inf(-1)), avg(subset, false, sdFold))
		same("AvgSDAfter", r.AvgSDAfter(t0), avg(nil, true, sdFold))
		same("AvgSDAfterOver", r.AvgSDAfterOver(subset, t0), avg(subset, true, sdFold))
		same("AvgDCDT", r.AvgDCDT(), avg(nil, false, meanFold))
		same("AvgDCDTAfterOver at -Inf", r.AvgDCDTAfterOver(subset, math.Inf(-1)), avg(subset, false, meanFold))
		same("AvgDCDTAfter", r.AvgDCDTAfter(t0), avg(nil, true, meanFold))
		same("AvgDCDTAfterOver", r.AvgDCDTAfterOver(subset, t0), avg(subset, true, meanFold))
		same("MaxIntervalOver", r.MaxIntervalOver(subset), maxIv(subset))
		same("MaxInterval", r.MaxInterval(), maxIv(nil))
		checkSummary(t, r, t0)
	}
}

// checkSummary fails unless the three metrics the fused gap summary
// serves, read at cut t0, equal the per-metric passes it replaced bit
// for bit.
func checkSummary(t *testing.T, r *Recorder, t0 float64) {
	t.Helper()
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"AvgDCDTAfter", r.AvgDCDTAfter(t0), r.dcdtPass(nil, t0)},
		{"AvgSDAfter", r.AvgSDAfter(t0), r.sdPass(nil, t0)},
		{"MaxInterval", r.MaxInterval(), r.MaxIntervalOver(nil)},
		{"AvgDCDT", r.AvgDCDT(), r.dcdtPass(nil, math.Inf(-1))},
		{"AvgSD", r.AvgSD(), r.sdPass(nil, math.Inf(-1))},
		{"MaxInterval", r.MaxInterval(), r.MaxIntervalOver(nil)},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			t.Fatalf("%s at cut %v = %v, its own pass %v", m.name, t0, m.got, m.want)
		}
	}
}

// TestGapSummaryNeverStale: the gap summary is cached per cut, and a
// read after any change to a log — OnVisit, Append, AppendEvery,
// MergeRuns, or the reset of a released recorder taken again — sees
// the change, at the cut the cache holds and at another.
func TestGapSummaryNeverStale(t *testing.T) {
	src := xrand.New(21)
	r := NewRecorderCap(3, nil)
	last := make([]float64, 3)
	for i := 0; i < 3000; i++ {
		t0 := float64(src.Intn(60))
		r.AvgDCDTAfter(t0) // fill the cache at t0
		id := src.Intn(3)
		switch src.Intn(6) {
		case 0:
			r.OnVisit(0, id, last[id]+float64(src.Intn(4)))
			last[id] = r.VisitTimes(id)[len(r.VisitTimes(id))-1]
		case 1, 2:
			r.Append(id, last[id]+float64(src.Intn(9))/2)
			last[id] = r.VisitTimes(id)[len(r.VisitTimes(id))-1]
		case 3:
			if _, n := r.AppendEvery(id, last[id]+0.5, 0.7, last[id]+float64(src.Intn(5))); n > 0 {
				last[id] = r.VisitTimes(id)[len(r.VisitTimes(id))-1]
			}
		case 4:
			// A run earlier than the log's last visit, read before it
			// is merged.
			r.AllowRuns()
			r.Append(id, float64(src.Intn(20)))
			r.AvgDCDTAfter(t0)
			r.MergeRuns()
			last[id] = r.VisitTimes(id)[len(r.VisitTimes(id))-1]
		case 5:
			if src.Intn(10) == 0 {
				Release(r)
				r = NewRecorderCap(3, []int{4, 4, 4})
				clear(last)
			}
		}
		checkSummary(t, r, t0)
		checkSummary(t, r, t0+float64(src.Intn(3)))
	}
}
