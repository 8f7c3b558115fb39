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
	var caps []int
	if exact {
		caps = make([]int, len(runs))
		for t, rs := range runs {
			for _, r := range rs {
				caps[t] += len(r)
			}
		}
	}
	rec := NewRecorderCap(len(runs), caps)
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

// FuzzMergeRuns holds the run merge to the sorting oracle on logs
// decoded by fuzzRuns, carved from the flat block or grown by append,
// and on the merge itself with a buffer too short for the log.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xF1, 0, 1, 0xF0, 0xF0, 4, 0xF2})
	f.Add([]byte{0xF3, 0, 0, 0xF3, 0, 0xF3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{0xFF, 1, 0xFE, 1, 0xFD, 1, 0xFC, 1, 0xFB, 1, 0xFA, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := fuzzRuns(data)
		runs := [][][]float64{rs}
		for _, exact := range []bool{false, true} {
			rec := recordRuns(runs, exact)
			checkMerged(t, rec, runs)
			if n := naturalRuns(rs); n > 1 && rec.Merged() != n {
				t.Fatalf("Merged() = %d, want %d", rec.Merged(), n)
			}
		}
		var ts []float64
		for _, r := range rs {
			ts = append(ts, r...)
		}
		mergeRuns(ts, make([]float64, len(ts)/3))
		checkMerged(t, &Recorder{visits: [][]float64{ts}}, runs)
	})
}
