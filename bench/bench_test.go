package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 99, true, 990},     // exactly 10 samples beyond
		{999, 99, false, 0},       // rank 990: 9 beyond
		{10000, 99.9, true, 9990}, // 99.9 has no exact binary form
		{9999, 99.9, false, 0},
		{100, 99, false, 0},
		{100, 90, true, 90},
		{20, 50, true, 10},
		{19, 50, false, 0},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Fatalf("p%g of %d samples: err = %v, want ok = %v", tc.p, tc.n, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("p%g of %d samples = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
	if _, err := percentile(xs(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestCalibratedScalesItsOperations checks that an operation's samples,
// and only they, get the factor of the kernel passes around it, and
// that the closing pass carries over to the next operation.
func TestCalibratedScalesItsOperations(t *testing.T) {
	if kernelPass(1) != kernelPass(1) {
		t.Fatal("the kernel is not deterministic")
	}
	r := newResult()
	r.ops = append(r.ops, sample{scale: factor{7, 7}})
	var k float64
	for range 2 {
		err := calibrated(r, &k, func() error {
			r.ops = append(r.ops, sample{}, sample{})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if k <= 0 {
			t.Fatalf("closing kernel pass %g s", k)
		}
	}
	if r.ops[0].scale != (factor{7, 7}) {
		t.Errorf("an earlier operation's factor changed to %+v", r.ops[0].scale)
	}
	for i, s := range r.ops[1:] {
		if s.scale.Wall <= 0 || s.scale.CPU <= 0 || s.scale != r.ops[1+i/2*2].scale {
			t.Errorf("sample %d: factor %+v, want one positive factor per operation", i+1, s.scale)
		}
	}
}

// TestFactorOf checks that steal time shortens wall times only, and
// that a slower kernel shortens both kinds of time.
func TestFactorOf(t *testing.T) {
	h0 := hostCPU{busy: 10, steal: 3}
	for _, tc := range []struct {
		kernel float64
		h1     hostCPU
		want   factor
	}{
		{kernelRef, hostCPU{busy: 12, steal: 3}, factor{1, 1}},
		{kernelRef, hostCPU{busy: 11, steal: 4}, factor{0.5, 1}},
		{2 * kernelRef, hostCPU{busy: 13, steal: 4}, factor{0.375, 0.5}},
		{kernelRef, h0, factor{1, 1}}, // the cores wanted no time
	} {
		if got := factorOf(tc.kernel, tc.kernel, h0, tc.h1); got != tc.want {
			t.Errorf("kernel %g s, %+v to %+v: %+v, want %+v", tc.kernel, h0, tc.h1, got, tc.want)
		}
	}
	if _, err := readHostCPU(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25}, // nested in a
		{ID: 6, Parent: 1, Name: "d", Start: 200, End: 300},
		{ID: 7, Name: "root", Start: 0, End: 10},
	}
	got := selfTimes(spans)
	// parent: 100 minus [10,50) and [90,100); a: 20 minus a1's 10.
	want := []int64{50, 10, 30, 30, 10, 100, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestTracerFoldsOperations checks that concurrent operations' spans
// and counts reach the run's tracer, with distinct ids, and that a
// phase folds them into the readers and keeps the latest operation's
// spans for the trace file.
func TestTracerFoldsOperations(t *testing.T) {
	tr := newTracer()
	err := tr.phase(func() error {
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr.op(func(o *tracer) error {
					o.timed("emit", 0, "", func() { time.Sleep(time.Millisecond) })
					o.count("emit.cells", 1)
					return nil
				})
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.durations("op")); n != 2 {
		t.Errorf("%d op spans, want 2", n)
	}
	if n := len(tr.durations("emit")); n != 2 {
		t.Errorf("%d emit spans, want 2", n)
	}
	if b := tr.busy()["emit"]; b < 0.002 {
		t.Errorf("emit busy %gs, want at least 2 ms", b)
	}
	if c := tr.counts["emit.cells"]; c != 2 {
		t.Errorf("emit.cells = %g, want 2", c)
	}
	if len(tr.spans) != 0 || len(tr.last) < 2 {
		t.Errorf("after the phase: %d unfolded spans, %d kept for the trace file", len(tr.spans), len(tr.last))
	}
	ids := map[int64]bool{}
	for _, s := range tr.last {
		if ids[s.ID] {
			t.Errorf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
	}
	var got *tracer = tr
	var untraced *tracer
	untraced.op(func(o *tracer) error { got = o; return nil })
	if got != nil {
		t.Error("an untraced operation received a tracer")
	}
}

// TestPairedOverhead checks that the tracing overhead compares each
// traced operation with its own untraced twin, so that a host slowdown
// falling on one pair does not read as tracing cost.
func TestPairedOverhead(t *testing.T) {
	ops := func(secs ...float64) *result {
		r := newResult()
		for _, s := range secs {
			r.addSerial(sample{wall: time.Duration(s * float64(time.Second))}, "")
		}
		return r
	}
	// The second pair ran while the host was twice as slow; the extra
	// traced operation has no twin.
	got := pairedOverhead(ops(1.05, 2.1, 1.05, 9), ops(1, 2, 1))
	if got < 0.0499 || got > 0.0501 {
		t.Errorf("overhead %g, want 0.05", got)
	}
}

func TestWarmTrafficIsPureFunctionOfSeed(t *testing.T) {
	seq := func(seed uint64) []grid {
		var out []grid
		for i := 0; i < 50; i++ {
			out = append(out, warmGrid(seed, i))
		}
		return out
	}
	a, b := seq(7), seq(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("warm traffic differs between two generations with one seed")
	}
	if reflect.DeepEqual(a, seq(8)) {
		t.Error("seeds 7 and 8 generate the same warm traffic")
	}
	// Request i does not depend on which requests came before it.
	if !reflect.DeepEqual(warmGrid(7, 31), a[31]) {
		t.Error("request 31 depends on generation order")
	}
	for i, g := range a {
		if g.cells() == 0 {
			t.Fatalf("request %d is empty", i)
		}
		inOrder := func(sub []int, all []int) bool {
			last := -1
			for _, x := range sub {
				j := slices.Index(all, x)
				if j <= last {
					return false
				}
				last = j
			}
			return true
		}
		if !inOrder(g.Targets, paperGrid.Targets) || !inOrder(g.Mules, paperGrid.Mules) {
			t.Fatalf("request %d leaves the canonical axis order: %+v", i, g)
		}
	}
}

func TestVerifySweep(t *testing.T) {
	header := "algorithm,targets,mules,reps,avg_sd_s"
	ref, err := splitCSV([]byte(header + "\nbtctp,10,2,4,0.000\nchb,10,2,4,1.500\nchb,20,4,4,2.000\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		csv  string
		want *table
		bad  int
	}{
		{"clean", header + "\nbtctp,10,2,4,0.000\nchb,10,2,4,1.500\nchb,20,4,4,2.000\n", &ref, 0},
		{"btctp spacing", header + "\nbtctp,10,2,4,0.001\nchb,10,2,4,1.500\nchb,20,4,4,2.000\n", nil, 1},
		{"reps", header + "\nbtctp,10,2,3,0.000\nchb,10,2,4,1.500\nchb,20,4,4,2.000\n", nil, 1},
		{"differs", header + "\nbtctp,10,2,4,0.000\nchb,10,2,4,1.501\nchb,20,4,4,2.000\n", &ref, 1},
		{"row count", header + "\nbtctp,10,2,4,0.000\n", &ref, 3},
		{"no newline", header + "\nbtctp,10,2,4,0.000", nil, 3},
	} {
		if bad, msg := verifySweep([]byte(tc.csv), tc.want, 4, 3); bad != tc.bad {
			t.Errorf("%s: %d bad cells (%s), want %d", tc.name, bad, msg, tc.bad)
		}
	}
	sub, err := ref.subgrid(grid{Algs: []string{"chb"}, Targets: []int{10, 20}, Mules: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.header != header || !slices.Equal(sub.rows, []string{"chb,20,4,4,2.000"}) {
		t.Errorf("subgrid = %+v", sub)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics
// this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program's is %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded {
				t.Errorf("%s metric %d is %+v, the program's is %+v", kind, i, g, m)
			}
			if bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each reports every metric of its kind and no failure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		start := time.Now()
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "all", "-smoke", "-seconds", "0", "-trace", tc.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		t.Logf("trace %s: all workloads in %v", tc.trace, time.Since(start).Round(time.Millisecond))
		var lines int
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			lines++
			var rep report
			if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
				t.Fatalf("trace %s: line %d: %v", tc.trace, lines, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("trace %s: line %d: %+v", tc.trace, lines, rep)
			}
			var names []string
			for n := range rep.Metrics {
				names = append(names, n)
			}
			var want []string
			for _, d := range tc.defs {
				want = append(want, d.name)
			}
			slices.Sort(names)
			slices.Sort(want)
			if !slices.Equal(names, want) {
				t.Errorf("trace %s: line %d reports %v, want %v", tc.trace, lines, names, want)
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d\n%s", tc.trace, lines, len(workloads),
				strings.TrimSpace(stderr.String()))
		}
	}
}
