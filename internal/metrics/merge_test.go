package metrics

import (
	"math"
	"slices"
	"testing"

	"tctp/internal/xrand"
)

// recordRuns appends each run of runs[t], in order, to target t's log
// of a recorder that takes runs, and merges them. With exact, the
// recorder carves each log from its flat block at the log's length;
// without, the logs grow as they fill.
func recordRuns(runs [][][]float64, exact bool) *Recorder {
	rec := NewRecorderCap(len(runs), runCaps(runs, exact))
	rec.AllowRuns()
	for t, rs := range runs {
		for _, r := range rs {
			for _, v := range r {
				rec.Append(t, v)
			}
		}
	}
	rec.MergeRuns()
	return rec
}

// runCaps returns, with exact, each target's visit count in runs as
// its log's capacity, else nil.
func runCaps(runs [][][]float64, exact bool) []int {
	if !exact {
		return nil
	}
	caps := make([]int, len(runs))
	for t, rs := range runs {
		for _, r := range rs {
			caps[t] += len(r)
		}
	}
	return caps
}

// checkMerged fails unless every log of rec holds its runs merged, bit
// for bit as the oracle sorts them.
func checkMerged(t *testing.T, rec *Recorder, runs [][][]float64) {
	t.Helper()
	for id, rs := range runs {
		got, want := rec.VisitTimes(id), sortedRuns(rs)
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("target %d: runs %v merged to %v, want %v", id, rs, got, want)
		}
	}
}

// naturalRuns counts the time-sorted runs of the runs concatenated:
// empty runs vanish, and runs that continue one another are one.
func naturalRuns(rs [][]float64) int {
	var all []float64
	for _, r := range rs {
		all = append(all, r...)
	}
	n := 1
	for i := 1; i < len(all); i++ {
		if all[i] < all[i-1] {
			n++
		}
	}
	return n
}

// TestMergeRuns holds the recorder's run merge to the sorting oracle:
// ties within and across runs, empty and one-element runs, up to 64
// runs of random lengths, logs carved from the flat block and logs
// grown by append, merge buffers too short for the log, and logs that
// are one run already, which keep their backing array and allocate
// nothing.
func TestMergeRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs [][]float64
		want int // the runs Merged reports
	}{
		{"ties across runs", [][]float64{{1, 2, 3, 3}, {2, 3, 4}, {3}, {0, 3}}, 4},
		{"empty and one-element runs", [][]float64{{}, {5}, {}, {1}, {}, {3}, {2}, {}}, 3},
		{"runs that continue each other", [][]float64{{1, 2}, {2, 3}, {0}, {0, 7}}, 2},
		{"one run", [][]float64{{1, 1, 2, 5}}, 0},
		{"nothing", [][]float64{{}, {}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, exact := range []bool{false, true} {
				runs := [][][]float64{tc.runs, {{1, 2}}}
				rec := recordRuns(runs, exact)
				checkMerged(t, rec, runs)
				if rec.Merged() != tc.want {
					t.Fatalf("exact %v: Merged() = %d, want %d", exact, rec.Merged(), tc.want)
				}
			}
		})
	}

	src := xrand.New(7)
	for i := 0; i < 300; i++ {
		runs := make([][][]float64, 1+src.Intn(4))
		for id := range runs {
			runs[id] = make([][]float64, src.Intn(65))
			for k := range runs[id] {
				r := make([]float64, src.Intn(6))
				at := float64(src.Intn(40))
				for j := range r {
					at += float64(src.Intn(3)) / 2
					r[j] = at
				}
				runs[id][k] = r
			}
		}
		rec := recordRuns(runs, src.Intn(2) == 0)
		checkMerged(t, rec, runs)
		most := 0
		for _, rs := range runs {
			if n := naturalRuns(rs); n > 1 {
				most = max(most, n)
			}
		}
		if most > 0 && rec.Merged() != most {
			t.Fatalf("case %d: Merged() = %d, want %d", i, rec.Merged(), most)
		}
		// The merge itself, with a buffer that may be too short.
		for _, rs := range runs {
			var ts []float64
			for _, r := range rs {
				ts = append(ts, r...)
			}
			if n := mergeRuns(ts, make([]float64, src.Intn(len(ts)+1))); n != naturalRuns(rs) {
				t.Fatalf("case %d: mergeRuns counts %d runs, want %d", i, n, naturalRuns(rs))
			}
			checkMerged(t, &Recorder{visits: [][]float64{ts}}, [][][]float64{rs})
		}
	}

	// A log that is one run already keeps its backing array, and
	// merging it allocates nothing, even with no buffer.
	rec := recordRuns([][][]float64{{{3, 4}, {1, 2}}, {{1, 2, 2, 9}}}, true)
	one := rec.VisitTimes(1)
	if allocs := testing.AllocsPerRun(10, func() {
		if n := mergeRuns(one, nil); n != 1 {
			t.Fatalf("a sorted log counts %d runs", n)
		}
	}); allocs != 0 {
		t.Fatalf("merging a sorted log allocates %v times", allocs)
	}
	if &rec.VisitTimes(1)[0] != &one[0] || !slices.Equal(one, []float64{1, 2, 2, 9}) {
		t.Fatalf("the sorted log became %v", rec.VisitTimes(1))
	}
}

// TestMergeRunsAllocations: a recorder merges in a buffer it keeps, so
// only its first merge allocates, or, reused with a flat block longer
// than the run needs, in the block's spare tail, without allocating at
// all.
func TestMergeRunsAllocations(t *testing.T) {
	runs := [][]float64{{5, 6, 7}, {1, 2}, {3, 9}, {0}}
	record := func(rec *Recorder) {
		rec.AllowRuns()
		for _, r := range runs {
			for _, v := range r {
				rec.Append(0, v)
			}
		}
		rec.MergeRuns()
	}
	rec := NewRecorderCap(1, []int{8})
	if allocs := testing.AllocsPerRun(10, func() {
		rec.visits[0] = rec.visits[0][:0]
		record(rec)
	}); allocs != 0 || len(rec.scratch) != 8 {
		t.Fatalf("repeated merges allocate %v times, buffer %d", allocs, len(rec.scratch))
	}
	checkMerged(t, rec, [][][]float64{runs})

	rec = NewRecorderCap(1, []int{64})
	if allocs := testing.AllocsPerRun(10, func() {
		rec.reset(1, []int{8})
		record(rec)
	}); allocs != 0 || rec.scratch != nil {
		t.Fatalf("a reused recorder's merge allocates %v times, buffer %d", allocs, len(rec.scratch))
	}
	checkMerged(t, rec, [][][]float64{runs})
}

// TestMergeRunsRestoresOrderCheck: once merged, a recorder that took
// runs panics on an out-of-order visit, as one from NewRecorderCap does.
func TestMergeRunsRestoresOrderCheck(t *testing.T) {
	rec := NewRecorderCap(1, nil)
	rec.AllowRuns()
	rec.Append(0, 5)
	rec.Append(0, 4)
	rec.MergeRuns()
	defer func() {
		if recover() == nil {
			t.Fatal("an out-of-order visit after MergeRuns did not panic")
		}
	}()
	rec.Append(0, 3)
}

// fuzzRuns decodes a log of up to 64 runs from data: a byte of 0xF0 or
// more starts a new run at a time of its own, any other adds a visit
// its low three bits, in quarters of a second, after the last.
func fuzzRuns(data []byte) [][]float64 {
	runs := [][]float64{nil}
	at := 0.0
	for _, b := range data {
		if b >= 0xF0 {
			if len(runs) < 64 {
				runs = append(runs, nil)
			}
			at = float64(b - 0xF0)
			continue
		}
		at += float64(b%8) / 4
		runs[len(runs)-1] = append(runs[len(runs)-1], at)
	}
	return runs
}

// The run families of FuzzMergeRuns: irregular runs (fuzzRuns), and
// the runs of m mules spread evenly over one circuit of period p, each
// logging a visit every period, as B-TCTP, W-TCTP and CHB mules do,
// with the variations a gather must take or turn down.
const (
	irregular  = iota
	nearTies   // a mule 1 ulp before or after the one ahead of it
	coTravel   // mules logging equal times, as co-travelling CHB mules do
	vip        // w visits per period, as a W-TCTP mule at a VIP
	oneEach    // a visit or none per mule
	longTails  // runs two visits longer than the rest
	continuing // a last run that starts where the one before it ends
	badMarks   // fewer or more AllowRuns calls than runs
	parked     // runs as spans (AppendEvery), where they stride
	families
)

// cyclicRuns decodes from data the runs of a circuit family (see
// nearTies and after) in the order the mules append them, and reports
// how many times to call AllowRuns before each run: once, or, for
// badMarks, none to three times.
func cyclicRuns(family int, data []byte) (runs [][]float64, calls []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m := 1 + next()%8
	visits := next() % 12
	p := 1 + float64(next())/8
	at := 1 + float64(next())/4 // past 0, so no near-tie reaches -0
	extra := next() % (m + 1)   // the first runs, by phase, one visit longer
	rot := next() % m
	bits := next()
	w := 1
	switch family {
	case vip:
		w = 2 + next()%2
	case oneEach:
		visits = 0
	case longTails:
		visits++
	}
	byPhase := make([][]float64, m)
	for k := range byPhase {
		n := visits
		if k < extra {
			n++
			if family == longTails {
				n++
			}
		}
		x := at + float64(k)*p/float64(m)
		for range n {
			for i := range w {
				byPhase[k] = append(byPhase[k], x+float64(i)*p/float64(2*m*w))
			}
			x += p
		}
		if k == 0 {
			continue
		}
		prev, r := byPhase[k-1], byPhase[k]
		switch {
		case family == nearTies && bits>>(k%8)&1 == 1 && len(prev) == len(r):
			dir := math.Inf(1)
			if bits>>((k+4)%8)&1 == 1 {
				dir = math.Inf(-1)
			}
			for j := range r {
				r[j] = math.Nextafter(prev[j], dir)
			}
		case family == coTravel && bits>>(k%8)&1 == 1:
			byPhase[k] = slices.Clone(prev)
		}
	}
	for k := range byPhase {
		runs = append(runs, byPhase[(k+rot)%m])
	}
	if last := runs[len(runs)-1]; family == continuing && len(last) > 0 {
		tail := []float64{last[len(last)-1]}
		for range visits {
			tail = append(tail, tail[len(tail)-1]+p)
		}
		runs = append(runs, tail)
	}
	calls = slices.Repeat([]int{1}, len(runs)+1)
	if family == badMarks {
		for k := range calls {
			calls[k] = int(bits>>(k%4*2)) & 3
		}
	}
	return runs, calls
}

// recordMarked is recordRuns with AllowRuns called before each run, as
// patrol.Run calls it before each mule runs ahead: every target's k-th
// run is appended after calls[k] calls, and the first after at least
// one. The calls after the last run stand for the engine's mules, here
// with no visits. With spans, each run of two or more visits a step
// apart, each the one before plus the step, goes in through
// AppendEvery, a parked mule's span.
func recordMarked(runs [][][]float64, exact bool, calls []int, spans bool) *Recorder {
	rec := NewRecorderCap(len(runs), runCaps(runs, exact))
	rows := 0
	for _, rs := range runs {
		rows = max(rows, len(rs))
	}
	for k := 0; k <= rows; k++ {
		n := calls[k]
		if k == 0 {
			n = max(n, 1)
		}
		for range n {
			rec.AllowRuns()
		}
		for t, rs := range runs {
			if k >= len(rs) {
				continue
			}
			if r := rs[k]; spans && stride(r) {
				rec.AppendEvery(t, r[0], r[1]-r[0], r[len(r)-1])
				continue
			}
			for _, v := range rs[k] {
				rec.Append(t, v)
			}
		}
	}
	rec.MergeRuns()
	return rec
}

// stride reports whether r is two or more visits a positive step
// apart, each the one before plus the step.
func stride(r []float64) bool {
	if len(r) < 2 || !(r[1] > r[0]) {
		return false
	}
	for j := 2; j < len(r); j++ {
		if r[j] != r[j-1]+(r[1]-r[0]) {
			return false
		}
	}
	return true
}

// FuzzMergeRuns holds the run merge to the sorting oracle, with one
// AllowRuns for all runs (recordRuns) and with one before each run
// (recordMarked) alike: on logs decoded by fuzzRuns and on the circuit
// families of cyclicRuns, each also appended in reverse order on a
// second target, carved from the flat block or grown by append; and on
// the oracle's merge itself with a buffer too short for the log. Both
// recorders report the same Merged.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xF1, 0, 1, 0xF0, 0xF0, 4, 0xF2}, uint8(irregular))
	f.Add([]byte{0xF3, 0, 0, 0xF3, 0, 0xF3}, uint8(irregular))
	f.Add([]byte{7, 7, 7, 7}, uint8(irregular))
	f.Add([]byte{0xFF, 1, 0xFE, 1, 0xFD, 1, 0xFC, 1, 0xFB, 1, 0xFA, 1}, uint8(irregular))
	f.Add([]byte{4, 0xF1, 0, 0xF0, 1}, uint8(irregular)) // a run from the last visit of the one before: no descent
	for family := nearTies; family < families; family++ {
		f.Add([]byte{7, 9, 40, 3, 2, 5, 0xA5, 1}, uint8(family))
		f.Add([]byte{3, 4, 0, 0, 3, 1, 0x5A, 0}, uint8(family))
	}
	f.Fuzz(func(t *testing.T, data []byte, family uint8) {
		var rs [][]float64
		var calls []int
		if family %= families; family == irregular {
			rs, calls = fuzzRuns(data), slices.Repeat([]int{1}, 66)
		} else {
			rs, calls = cyclicRuns(int(family), data)
		}
		runs := [][][]float64{rs, slices.Clone(rs)}
		slices.Reverse(runs[1])
		for _, exact := range []bool{false, true} {
			plain := recordRuns(runs, exact)
			checkMerged(t, plain, runs)
			if n := max(naturalRuns(runs[0]), naturalRuns(runs[1])); n > 1 && plain.Merged() != n {
				t.Fatalf("Merged() = %d, want %d", plain.Merged(), n)
			}
			marked := recordMarked(runs, exact, calls, family == parked)
			checkMerged(t, marked, runs)
			if marked.Merged() != plain.Merged() {
				t.Fatalf("Merged() = %d with AllowRuns per run, %d with one", marked.Merged(), plain.Merged())
			}
		}
		var ts []float64
		for _, r := range rs {
			ts = append(ts, r...)
		}
		mergeRuns(ts, make([]float64, len(ts)/3))
		checkMerged(t, &Recorder{visits: [][]float64{ts}}, [][][]float64{rs})
	})
}

// TestMergeRunsGathers: runs that interleave round-robin, as eight
// mules evenly spread over one circuit log them, are gathered, never
// merged pass after pass, even with their tails one visit apart, equal
// times or 1-ulp near-ties, with fewer AllowRuns calls than runs, or on
// 60 targets. Runs that do not interleave so, a W-TCTP mule's two
// visits per period, tails two visits apart or a run that continues the
// one before, fall back. Each comes out as the sorting oracle has it.
func TestMergeRunsGathers(t *testing.T) {
	for _, tc := range []struct {
		family, targets int
		bits            byte
		gather          bool
	}{
		{nearTies, 2, 0, true},
		{nearTies, 2, 0xFF, true}, // every mule 1 ulp before the one ahead
		{nearTies, 2, 0x0F, true},
		{coTravel, 2, 0x55, true},
		{badMarks, 2, 0x02, true},
		{nearTies, 60, 0x0F, true},
		{continuing, 2, 0, false},
		{vip, 2, 0, false},
		{longTails, 2, 0, false},
	} {
		// 8 mules, 40 or 41 visits each, period 6 s, from 3.5 s, the
		// fourth run appended first; every other target's runs are
		// appended in reverse order.
		rs, calls := cyclicRuns(tc.family, []byte{7, 40, 40, 10, 3, 3, tc.bits})
		runs := make([][][]float64, tc.targets)
		for id := range runs {
			runs[id] = slices.Clone(rs)
			if id%2 == 1 {
				slices.Reverse(runs[id])
			}
		}
		for _, exact := range []bool{false, true} {
			rec := recordMarked(runs, exact, calls, false)
			checkMerged(t, rec, runs)
			want := 0
			if !tc.gather {
				want = len(runs)
			}
			if rec.Merged() < 8 || rec.fallbacks != want {
				t.Fatalf("family %d on %d targets, bits %#x, exact %v: %d runs merged, %d logs fell back, want %d",
					tc.family, tc.targets, tc.bits, exact, rec.Merged(), rec.fallbacks, want)
			}
		}
	}
}

// appendLoop is AppendEvery's oracle: Append on t0, t0+step, … while
// at or before t, each time the one before plus step. It returns the
// first time past t and the visits appended, or ok == false after
// limit visits or on a step too small to move the time, where
// AppendEvery would not return either.
func appendLoop(r *Recorder, target int, t0, step, t float64, limit int) (next float64, n int, ok bool) {
	for ; t0 <= t; t0 += step {
		if n == limit || t0+step == t0 {
			return t0, n, false
		}
		r.Append(target, t0)
		n++
	}
	return t0, n, true
}

// FuzzAppendEvery holds AppendEvery to a loop of Append from t0 by
// step up to t, on a log holding the runs fuzzRuns decodes from prior
// (sorted into one run unless runs are allowed): the same log, the
// same next time and count, bit for bit, the same panic on a t0 before
// the log's last visit when runs are not allowed, and, when they are,
// the same logs after MergeRuns. A span of more than 4096 visits is
// cut at the 4096th. It reads the logs through VisitTimes, which writes
// a span out first; FuzzParkedSpan reads the spans unwritten.
func FuzzAppendEvery(f *testing.F) {
	f.Add(0.0, 1.0, 10.0, []byte{}, false)
	f.Add(131071.5, 0.3, 131076.0, []byte{1, 2}, false)
	f.Add(3.0, 0.7, 9.0, []byte{1, 2, 3, 0xF1, 0, 1}, true)
	f.Add(0.25, 3.0, 0.25, []byte{7, 7}, true)
	f.Add(2.0, 1.0, 1.0, []byte{0xF5}, false)
	f.Fuzz(func(t *testing.T, t0, step, end float64, prior []byte, runs bool) {
		if !(step > 0) || math.IsInf(step, 0) || math.IsInf(end, 0) {
			t.Skip("AppendEvery needs a positive step and a finite end")
		}
		var visits []float64
		for _, r := range fuzzRuns(prior) {
			visits = append(visits, r...)
		}
		if !runs {
			slices.Sort(visits)
		}
		// fill records the prior visits on target 0, and on target 1
		// merged into one run: a log the stride leaves alone.
		fill := func() *Recorder {
			rec := NewRecorderCap(2, nil)
			rec.AllowRuns()
			for _, v := range visits {
				rec.Append(1, v)
			}
			rec.MergeRuns()
			if runs {
				rec.AllowRuns()
			}
			for _, v := range visits {
				rec.Append(0, v)
			}
			return rec
		}
		panics := func(fn func()) (p any) {
			defer func() { p = recover() }()
			fn()
			return nil
		}
		want := fill()
		var wantNext float64
		var wantN int
		ok := true
		wantPanic := panics(func() { wantNext, wantN, ok = appendLoop(want, 0, t0, step, end, 4096) })
		if !ok && wantN == 4096 {
			// Too many visits: end the span at the last one appended.
			ts := want.VisitTimes(0)
			end = ts[len(ts)-1]
			want = fill()
			wantNext, wantN, ok = appendLoop(want, 0, t0, step, end, 4096)
		}
		if !ok {
			t.Skip("a step too small to move the time")
		}
		got := fill()
		var next float64
		var n int
		gotPanic := panics(func() { next, n = got.AppendEvery(0, t0, step, end) })
		if (gotPanic == nil) != (wantPanic == nil) {
			t.Fatalf("AppendEvery panicked with %v, the loop with %v", gotPanic, wantPanic)
		}
		if wantPanic != nil {
			return
		}
		if math.Float64bits(next) != math.Float64bits(wantNext) || n != wantN {
			t.Fatalf("AppendEvery returned (%v, %d), the loop (%v, %d)", next, n, wantNext, wantN)
		}
		same := func(stage string) {
			t.Helper()
			for id := 0; id < 2; id++ {
				if !slices.EqualFunc(got.VisitTimes(id), want.VisitTimes(id), func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("%s: target %d logs %v, the loop %v", stage, id, got.VisitTimes(id), want.VisitTimes(id))
				}
			}
		}
		same("appended")
		if runs {
			got.MergeRuns()
			want.MergeRuns()
			same("merged")
			if got.Merged() != want.Merged() {
				t.Fatalf("Merged() = %d, the loop's %d", got.Merged(), want.Merged())
			}
		}
	})
}

// BenchmarkMergeRuns measures recording and merging the visits of 8
// mules that share 10 targets, on a warm recorder: each op resets it,
// allows each mule's runs (AllowRuns) and appends the mule's visits, as
// patrol.Run does, and merges. On the cyclic log the mules spread
// evenly over one circuit, 250 visits to each target each, which the
// gather merges; on the random log each mule visits a random target
// after a random gap, as Random's mules do, and runs of uneven lengths
// merge pass after pass. Neither allocates.
func BenchmarkMergeRuns(b *testing.B) {
	const targets, m, laps = 10, 8, 250
	src := xrand.New(3)
	type visit struct {
		target int
		t      float64
	}
	cyclic, random := make([][]visit, m), make([][]visit, m)
	for k := range m {
		x := float64(k) * 100 / m
		for range laps {
			for t := range targets {
				cyclic[k] = append(cyclic[k], visit{t, x + float64(t)*10})
			}
			x += 100
		}
		x = 0
		for range laps * targets {
			x += 5 + 40*src.Float64()
			random[k] = append(random[k], visit{src.Intn(targets), x})
		}
	}
	for _, tc := range []struct {
		name   string
		mules  [][]visit
		gather bool
	}{{"cyclic", cyclic, true}, {"random", random, false}} {
		b.Run(tc.name, func(b *testing.B) {
			caps := make([]int, targets)
			for _, vs := range tc.mules {
				for _, v := range vs {
					caps[v.target]++
				}
			}
			rec := NewRecorderCap(targets, caps)
			record := func() {
				rec.reset(targets, caps)
				for _, vs := range tc.mules {
					rec.AllowRuns()
					for _, v := range vs {
						rec.Append(v.target, v.t)
					}
				}
				rec.MergeRuns()
			}
			record() // warm: the run tables and the merge buffer
			if rec.Merged() != m || (rec.fallbacks == 0) != tc.gather {
				b.Fatalf("%d runs merged, %d logs fell back", rec.Merged(), rec.fallbacks)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				record()
			}
		})
	}
}
