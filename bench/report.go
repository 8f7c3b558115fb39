package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// sample is one measured operation of a workload.
type sample struct {
	wall   time.Duration
	cpu    float64 // user+sys seconds of the processes under test
	rssMB  float64 // largest peak resident set of the processes under test
	cells  int
	failed int
	rt     roundTrip // client-side HTTP timing, for operations through a server
	// scale is the host-load calibration of the untraced subprocess
	// operations (see calibrated); the end-to-end times are wall times
	// scale.Wall and cpu times scale.CPU.
	scale factor
}

// result collects one workload's measurements.
type result struct {
	ops    []sample
	setups []scaled
	first  string // the first correctness problem seen
	// notes are per-operation observations read from the programs under
	// test (GET /stats); the per-layer report takes their medians.
	notes map[string][]float64
	// Cells checked outside the measured operations (paper-local's
	// repeat, service-warm's cache fill).
	extraAttempted, extraFailed int
}

func newResult() *result { return &result{notes: make(map[string][]float64)} }

// addSerial records an operation of a workload that runs one at a time.
func (r *result) addSerial(s sample, msg string) {
	r.ops = append(r.ops, s)
	r.problem(msg)
}

func (r *result) problem(msg string) {
	if msg != "" && r.first == "" {
		r.first = msg
	}
}

func (r *result) note(name string, v float64) { r.notes[name] = append(r.notes[name], v) }

// checked records cells checked outside the measured operations.
func (r *result) checked(cells, failed int, msg string) {
	r.extraAttempted += cells
	r.extraFailed += failed
	r.problem(msg)
}

func (r *result) counts() (attempted, failed int) {
	attempted, failed = r.extraAttempted, r.extraFailed
	for _, s := range r.ops {
		attempted += s.cells
		failed += s.failed
	}
	return attempted, failed
}

// series returns one value per operation.
func (r *result) series(f func(sample) float64) []float64 {
	out := make([]float64, len(r.ops))
	for i, s := range r.ops {
		out[i] = f(s)
	}
	return out
}

func (r *result) walls() []float64 {
	return r.series(func(s sample) float64 { return s.wall.Seconds() })
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric as BENCHMARK.json does.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the CLIs sees, measured with
// tracing off. Every workload reports each of them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run, named layer.metric. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.overhead", "ratio", "lower"},
	{"engine.busy_share", "ratio", "higher"},
	{"engine.other_ms_per_run", "ms", "lower"},
	{"scenario.build_ms", "ms", "lower"},
	{"plan.ms_per_run", "ms", "lower"},
	{"plan.share", "ratio", "lower"},
	{"simulate.ms_per_run", "ms", "lower"},
	{"simulate.share", "ratio", "lower"},
	{"simulate.visits_per_s", "visits/s", "higher"},
	{"metrics.ms_per_run", "ms", "lower"},
	{"metrics.share", "ratio", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"emit.us_per_cell", "us", "lower"},
	{"emit.bytes_per_cell", "bytes", "lower"},
	{"cache.hit_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"server.submit_ms", "ms", "lower"},
	{"server.result_ms", "ms", "lower"},
	{"dispatch.resolve_ms_p50", "ms", "lower"},
	{"dispatch.lease_wait_ms_p50", "ms", "lower"},
	{"dispatch.recompute_ratio", "ratio", "lower"},
	{"dispatch.expired", "count", "lower"},
	{"dispatch.reassigned", "count", "lower"},
	{"wire.result_bytes_per_cell", "bytes", "lower"},
	{"wire.result_post_ms", "ms", "lower"},
	{"wire.heartbeats_per_cell", "count", "lower"},
	{"worker.compute_ms_per_cell", "ms", "lower"},
	{"worker.busy_share", "ratio", "higher"},
}

// finite maps a missing value (no samples) to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics reduces an untraced result to its end-to-end metrics:
// medians over the operations, so one slow operation does not move a
// run, of the times scaled for host load.
func endToEndMetrics(r *result) map[string]metric {
	v := map[string]float64{
		"wall_s":      median(r.series(func(s sample) float64 { return s.wall.Seconds() * s.scale.Wall })),
		"setup_s":     median(r.setupSeries(scaled.value)),
		"cpu_s":       median(r.series(func(s sample) float64 { return s.cpu * s.scale.CPU })),
		"peak_rss_mb": median(r.series(func(s sample) float64 { return s.rssMB })),
	}
	return withUnits(endToEnd, v)
}

// rawTimes are the medians of the end-to-end times without the
// host-load scaling, kept in the record file to compare the two.
func rawTimes(r *result) map[string]float64 {
	return map[string]float64{
		"wall_s":  median(r.walls()),
		"setup_s": median(r.setupSeries(func(x scaled) float64 { return x.raw })),
		"cpu_s":   median(r.series(func(s sample) float64 { return s.cpu })),
	}
}

func (r *result) setupSeries(f func(scaled) float64) []float64 {
	out := make([]float64, len(r.setups))
	for i, x := range r.setups {
		out[i] = f(x)
	}
	return out
}

// pairedOverhead is the median over paired operations of traced over
// untraced wall time, minus 1. Operation i of either side is the same
// work, run within seconds of the other, so the host's load falls on
// both alike.
func pairedOverhead(traced, plain *result) float64 {
	t, p := traced.walls(), plain.walls()
	n := min(len(t), len(p))
	rs := make([]float64, n)
	for i := range n {
		rs[i] = ratio(t[i], p[i])
	}
	return median(rs) - 1
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{finite(v[d.name]), d.unit}
	}
	return out
}

// layers are the span layers whose self time is a layer's busy time.
// The engine's own time is what the capacity leaves over.
var layers = []string{"scenario", "plan", "simulate", "metrics", "emit", "cache", "server", "worker"}

// layerMetrics reduces a traced run to the per-layer metrics: the
// subprocess run (untraced), and the in-process operations with
// (traced) and without (plain) the wrappers. slots is the worker count:
// the cores the engine may keep busy.
func layerMetrics(tr *tracer, untraced, traced, plain *result, slots int) map[string]metric {
	busy := tr.busy()
	wall := tr.phaseWall.Seconds()
	total := 0.0
	for _, l := range layers {
		total += busy[l]
	}
	reps := float64(tr.nreps.Load())
	ops := float64(len(traced.ops))
	perRep := func(seconds float64) float64 { return ratio(1000*seconds, reps) }
	ms := func(xs []float64) float64 { return 1000 * median(xs) }

	tr.mu.Lock()
	c := make(map[string]float64, len(tr.counts))
	for k, x := range tr.counts {
		c[k] = x
	}
	tr.mu.Unlock()
	remoteCells := c["dispatch.cells"]
	notes := func(name string) float64 { return median(untraced.notes[name]) }

	v := map[string]float64{
		"trace.overhead":          pairedOverhead(traced, plain),
		"engine.busy_share":       ratio(total, float64(slots)*wall),
		"engine.other_ms_per_run": perRep(float64(slots)*wall - total),
		"scenario.build_ms":       perRep(busy["scenario"]),
		"plan.ms_per_run":         perRep(busy["plan"]),
		"plan.share":              ratio(busy["plan"], total),
		"simulate.ms_per_run":     perRep(busy["simulate"]),
		"simulate.share":          ratio(busy["simulate"], total),
		"simulate.visits_per_s":   ratio(float64(tr.visits.Load()), busy["simulate"]),
		"metrics.ms_per_run":      perRep(busy["metrics"]),
		"metrics.share":           ratio(busy["metrics"], total),

		"runtime.alloc_mb_per_op":  ratio(tr.rt.allocBytes/(1<<20), ops),
		"runtime.gc_cycles_per_op": ratio(tr.rt.gcCycles, ops),
		"runtime.gc_cpu_share":     ratio(tr.rt.gcCPU, tr.rt.totalCPU),

		"emit.us_per_cell":    ratio(1e6*busy["emit"], c["emit.cells"]),
		"emit.bytes_per_cell": ratio(c["emit.bytes"], c["emit.cells"]),

		"cache.hit_us":    1e6 * median(tr.durations("hit")),
		"cache.hit_ratio": notes("cache.hit_ratio"),

		"server.submit_ms": ms(untraced.series(func(s sample) float64 { return s.rt.submit.Seconds() })),
		"server.result_ms": ms(untraced.series(func(s sample) float64 { return s.rt.result.Seconds() })),

		"dispatch.resolve_ms_p50":    ms(tr.durations("resolve")),
		"dispatch.lease_wait_ms_p50": ms(tr.durations("lease")),
		"dispatch.recompute_ratio":   notes("dispatch.recompute_ratio"),
		"dispatch.expired":           notes("dispatch.expired"),
		"dispatch.reassigned":        notes("dispatch.reassigned"),

		"wire.result_bytes_per_cell": ratio(c["wire.bytes"], remoteCells),
		"wire.result_post_ms":        ms(tr.durations("result")),
		"wire.heartbeats_per_cell":   ratio(c["wire.heartbeats"], remoteCells),

		"worker.compute_ms_per_cell": ratio(1000*busy["worker"], remoteCells),
		"worker.busy_share":          ratio(busy["worker"], 2*wall),
	}
	return withUnits(perLayer, v)
}

// printMetrics writes metrics as aligned "name value unit" lines.
func printMetrics(w io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-28s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}
