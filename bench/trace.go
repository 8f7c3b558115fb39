package main

// Tracing from outside the program. The traced run calls only the
// public functions of each layer and wraps the seams they expose: the
// Spec's Scenario hook, the planner behind patrol.Planned, the metric
// functions, the sinks, the cell store, the dispatch scheduler's
// Resolve and store, and the server's worker endpoints. Every wrapper
// records spans into one in-memory tracer; nothing inside the program
// changes, which the byte-identity check on every traced output proves.
//
// Spans of one replication are tied together by the replication's
// *field.Scenario: the Scenario hook creates it, the planner receives
// it, and every metric function sees it in Env.Scenario, next to
// Env.Seed, which completes the replication key.
//
// A nil *tracer wraps nothing: every method then calls straight
// through, so the same in-process operation runs with and without the
// wrappers, and the difference between the two is the tracing cost.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
	"tctp/internal/xrand"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
}

// layerOf maps a span name to the layer whose busy time it measures.
// Spans that mostly wait map to no layer: a whole operation, a
// replication (its self time is the engine's), a cache miss (fold: its
// self time includes the wait for the store's compute gate), a
// single-flight join, a resolver waiting on the fleet, a lease
// long-poll.
var layerOf = map[string]string{
	"scenario": "scenario",
	"plan":     "plan",
	"simulate": "simulate",
	"metric":   "metrics",
	"emit":     "emit",
	"hit":      "cache",
	"probe":    "cache",
	"put":      "cache",
	"worker":   "worker",
	"request":  "server",
}

// repState follows one replication from its Scenario hook to its last
// metric call.
type repState struct {
	id, simID int64
	start     int64
	scenEnd   int64
	simulated bool
	left      int // metric calls still to come
}

// tracer records spans and counts. The run has one; each traced
// operation records into a tracer of its own, merged into the run's
// when the operation ends, so that concurrent operations (the two
// connections of service-warm) do not contend for one lock per span.
type tracer struct {
	origin time.Time
	parent *tracer // the run's tracer, for an operation's; nil for the run's
	idBase int64   // span ids of an operation's tracer start above it

	mu     sync.Mutex
	spans  []span // the current phase's spans
	reps   map[*field.Scenario]*repState
	counts map[string]float64
	lastOp int    // index into spans where the latest operation's spans begin
	last   []span // the latest operation's spans, for the trace file

	// Each phase's spans are folded into these when it ends, so the
	// spans held in memory, and the collector's work scanning them, stay
	// those of one phase.
	busyS map[string]float64   // layer → busy (self) seconds
	durs  map[string][]float64 // span name → durations, seconds

	nextID atomic.Int64
	ops    atomic.Int64 // operations begun
	visits atomic.Int64
	nreps  atomic.Int64

	// The traced phases: summed wall time and runtime/metrics deltas.
	phaseWall time.Duration
	rt        runtimeStats
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		reps:   make(map[*field.Scenario]*repState),
		counts: make(map[string]float64),
		busyS:  make(map[string]float64),
		durs:   make(map[string][]float64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }
func (t *tracer) id() int64  { return t.idBase + t.nextID.Add(1) }

// run returns the run's tracer.
func (t *tracer) run() *tracer {
	if t.parent != nil {
		return t.parent
	}
	return t
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// timed records a span named name around f.
func (t *tracer) timed(name string, parent int64, key string, f func()) {
	if t == nil {
		f()
		return
	}
	s := span{ID: t.id(), Parent: parent, Name: name, Key: key, Start: t.now()}
	f()
	s.End = t.now()
	t.record(s)
}

// phase runs one traced operation, with anything it runs alongside,
// adds its wall time and runtime deltas to the tracer's totals, and
// folds its spans.
func (t *tracer) phase(f func() error) error {
	before := readRuntime()
	start := time.Now()
	err := f()
	t.phaseWall += time.Since(start)
	t.rt.add(readRuntime().sub(before))
	t.fold()
	return err
}

// fold adds the current phase's spans to the per-layer busy time and
// the per-name durations, keeps the latest operation's spans for the
// trace file, and drops the rest. A phase holds whole operations, so
// every span's children are folded with it.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		if l := layerOf[s.Name]; l != "" {
			t.busyS[l] += float64(self) / 1e9
		}
		t.durs[s.Name] = append(t.durs[s.Name], float64(s.End-s.Start)/1e9)
	}
	if t.lastOp < len(t.spans) {
		t.last = append([]span(nil), t.spans[t.lastOp:]...)
	}
	t.spans, t.lastOp = nil, 0
}

// op runs one operation, traced as a root span when t is not nil, and
// returns its wall time. f receives the operation's own tracer (nil
// when t is nil), whose spans and counts join t's when f returns. Only
// the spans of the most recent operation are kept for the trace file,
// so its size stays bounded.
func (t *tracer) op(f func(t *tracer) error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f(nil)
		return time.Since(start), err
	}
	o := &tracer{
		origin: t.origin, parent: t, idBase: t.ops.Add(1) << 32,
		reps: make(map[*field.Scenario]*repState), counts: make(map[string]float64),
	}
	// Wrappers built outside the operation (the worker endpoints, the
	// scheduler's store) record into t while it runs; the trace file
	// keeps those too.
	t.mu.Lock()
	first := len(t.spans)
	t.mu.Unlock()
	start := time.Now()
	var err error
	o.timed("op", 0, "", func() { err = f(o) })
	wall := time.Since(start)
	t.mu.Lock()
	t.lastOp = first
	t.spans = append(t.spans, o.spans...)
	for k, v := range o.counts {
		t.counts[k] += v
	}
	t.mu.Unlock()
	return wall, err
}

// instrument wraps the seams of a planned-sweep Spec: the Scenario
// hook (timing Materialize of the same declarative cell scenario the
// engine would build), the planners and the metric functions. Names
// and digests are untouched, so plan fingerprints and cell keys do not
// change.
func (t *tracer) instrument(spec *sweep.Spec) error {
	if t == nil {
		return nil
	}
	if len(spec.Fleets) > 0 || len(spec.Workloads) > 1 || (len(spec.Workloads) == 1 && spec.Workloads[0].Enabled()) {
		return fmt.Errorf("trace: the scenario hook rebuilds homogeneous, workload-free cells only")
	}
	configure := spec.Configure
	spec.Scenario = func(p sweep.Point, src *xrand.Source) *field.Scenario {
		st := &repState{id: t.id(), simID: t.id(), start: t.now()}
		sc := &scenario.Scenario{
			Field:   scenario.Field{Placement: p.Placement},
			Targets: scenario.Targets{Count: p.Targets, VIPs: p.VIPs, VIPWeight: p.VIPWeight},
			Fleet:   scenario.Homogeneous(p.Mules, p.Speed),
			Horizon: p.Horizon,
		}
		if configure != nil {
			configure(p, sc)
		}
		scn, err := sc.Materialize(src)
		if err != nil {
			// The engine materializes the same scenario and would fail
			// identically; the hook has no error return.
			panic(fmt.Sprintf("trace: materialize %v: %v", p, err))
		}
		st.scenEnd = t.now()
		st.left = len(spec.Metrics) + len(spec.Vectors)
		t.record(span{ID: t.id(), Parent: st.id, Name: "scenario", Start: st.start, End: st.scenEnd})
		t.mu.Lock()
		t.reps[scn] = st
		t.mu.Unlock()
		return scn
	}
	for i, v := range spec.Algorithms {
		alg, err := t.algorithm(v.Name)
		if err != nil {
			return err
		}
		spec.Algorithms[i] = sweep.Algo(v.Name, alg)
	}
	for i := range spec.Metrics {
		fn := spec.Metrics[i].Fn
		spec.Metrics[i].Fn = func(e sweep.Env) (v float64) {
			t.metric(e, func() { v = fn(e) })
			return v
		}
	}
	for i := range spec.Vectors {
		fn := spec.Vectors[i].Fn
		spec.Vectors[i].Fn = func(e sweep.Env) (v []float64) {
			t.metric(e, func() { v = fn(e) })
			return v
		}
	}
	return nil
}

// algorithm rebuilds the named algorithm of internal/sweep/build with
// its planner wrapped in a timer.
func (t *tracer) algorithm(name string) (patrol.Algorithm, error) {
	var p core.Planner
	switch name {
	case "btctp":
		p = &core.BTCTP{}
	case "wtctp":
		p = &core.WTCTP{}
	case "chb":
		p = &baseline.CHB{}
	case "sweep":
		p = &baseline.Sweep{}
	case "random":
		return patrol.Online(&baseline.Random{}), nil
	default:
		return nil, fmt.Errorf("trace: unknown algorithm %q", name)
	}
	return patrol.Planned(t.planner(p)), nil
}

// timedPlanner times Plan. Its partitionable twin forwards
// core.Partitionable, so partitioned cells (C-BTCTP) are timed too.
type timedPlanner struct {
	core.Planner
	t *tracer
}

type timedPartitionable struct{ timedPlanner }

func (t *tracer) planner(p core.Planner) core.Planner {
	if _, ok := p.(core.Partitionable); ok {
		return timedPartitionable{timedPlanner{p, t}}
	}
	return timedPlanner{p, t}
}

func (p timedPlanner) Plan(s *field.Scenario) (plan *core.FleetPlan, err error) {
	p.t.mu.Lock()
	var parent int64
	if st := p.t.reps[s]; st != nil {
		parent = st.simID
	}
	p.t.mu.Unlock()
	p.t.timed("plan", parent, "", func() { plan, err = p.Planner.Plan(s) })
	return plan, err
}

func (p timedPartitionable) Partitioned(cfg core.PartitionConfig, src *xrand.Source) core.Planner {
	return p.t.planner(p.Planner.(core.Partitionable).Partitioned(cfg, src))
}

// metric times one metric call. The first call of a replication closes
// its simulate span (scenario hook return → first metric) and counts
// the replication's visits; the last closes the replication span.
func (t *tracer) metric(e sweep.Env, f func()) {
	t.mu.Lock()
	st := t.reps[e.Scenario]
	t.mu.Unlock()
	start := t.now()
	if st == nil {
		f()
		t.record(span{ID: t.id(), Name: "metric", Start: start, End: t.now()})
		return
	}
	if !st.simulated {
		st.simulated = true
		t.record(span{ID: st.simID, Parent: st.id, Name: "simulate", Start: st.scenEnd, End: start})
		t.run().visits.Add(int64(e.Result.TotalVisits()))
	}
	f()
	end := t.now()
	t.record(span{ID: t.id(), Parent: st.id, Name: "metric", Start: start, End: end})
	st.left--
	if st.left == 0 {
		t.mu.Lock()
		delete(t.reps, e.Scenario)
		t.mu.Unlock()
		t.run().nreps.Add(1)
		t.record(span{ID: st.id, Name: "replication", Start: st.start, End: end,
			Key: e.Point.String() + " seed=" + strconv.FormatUint(e.Seed, 10)})
	}
}

// timedSink wraps a sink, timing Begin, Cell and End as emit spans and
// counting the bytes it writes.
type timedSink struct {
	sweep.Sink
	t *tracer
}

type countingWriter struct {
	w io.Writer
	t *tracer
}

func (c countingWriter) Write(p []byte) (int, error) {
	c.t.count("emit.bytes", float64(len(p)))
	return c.w.Write(p)
}

// sink returns a timed sink built by mk over w.
func (t *tracer) sink(mk func(io.Writer) sweep.Sink, w io.Writer) sweep.Sink {
	if t == nil {
		return mk(w)
	}
	return timedSink{mk(countingWriter{w, t}), t}
}

func (s timedSink) Begin(spec *sweep.Spec, cells int) (err error) {
	s.t.timed("emit", 0, "", func() { err = s.Sink.Begin(spec, cells) })
	return err
}

func (s timedSink) Cell(c *sweep.CellResult) (err error) {
	s.t.timed("emit", 0, "", func() { err = s.Sink.Cell(c) })
	s.t.count("emit.cells", 1)
	return err
}

func (s timedSink) End(r *sweep.Result) (err error) {
	s.t.timed("emit", 0, "", func() { err = s.Sink.End(r) })
	return err
}

// cellStore returns the cell cache as RunCached's CellStore, timed.
func (t *tracer) cellStore(s *cache.Store) sweep.CellStore {
	if t == nil {
		return s
	}
	return timedStore{s, t}
}

// timedStore wraps the cell cache as RunCached's CellStore: one span
// per cell, named hit, fold (a miss, whose compute is a child span) or
// join (a single-flight wait).
type timedStore struct {
	s *cache.Store
	t *tracer
}

func (ts timedStore) Fold(key string, compute func() (protocol.FoldState, error)) (protocol.FoldState, protocol.Source, error) {
	id := ts.t.id()
	start := ts.t.now()
	st, src, err := ts.s.Fold(key, func() (st protocol.FoldState, err error) {
		ts.t.timed("compute", id, key, func() { st, err = compute() })
		return st, err
	})
	name := "fold"
	switch src {
	case protocol.SourceHit:
		name = "hit"
	case protocol.SourceJoined:
		name = "join"
	}
	ts.t.record(span{ID: id, Name: name, Start: start, End: ts.t.now(), Key: key})
	return st, src, err
}

// dispatchStore returns the cell cache as the dispatch scheduler's
// store, timed.
func (t *tracer) dispatchStore(s *cache.Store) dispatch.Store {
	if t == nil {
		return s
	}
	return probeStore{s, t}
}

// probeStore wraps the cell cache as the dispatch scheduler's store.
type probeStore struct {
	s *cache.Store
	t *tracer
}

func (ps probeStore) Probe(key string) (st protocol.FoldState, ok bool) {
	ps.t.timed("probe", 0, key, func() { st, ok = ps.s.Probe(key) })
	return st, ok
}

func (ps probeStore) Put(key string, st protocol.FoldState) {
	ps.t.timed("put", 0, key, func() { ps.s.Put(key, st) })
}

// workerPlane times the worker fleet's HTTP calls where they reach the
// server: lease long-polls, result posts and heartbeats. A worker
// computes from the moment its lease is answered until its result
// arrives, so that interval, matched by lease id, is the worker's
// compute span (it includes the loopback transfer both ways).
type workerPlane struct {
	h http.Handler
	t *tracer

	mu      sync.Mutex
	granted map[string]int64 // lease id → time its lease answer was sent
}

// workerPlane returns h behind a handler that times the worker
// endpoints.
func (t *tracer) workerPlane(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return &workerPlane{h: h, t: t, granted: make(map[string]int64)}
}

// capture keeps a copy of a response body.
type capture struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *capture) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

func (wp *workerPlane) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := wp.t.now()
	switch r.URL.Path {
	case "/workers/lease":
		c := &capture{ResponseWriter: w}
		wp.h.ServeHTTP(c, r)
		end := wp.t.now()
		wp.t.record(span{ID: wp.t.id(), Name: "lease", Start: start, End: end})
		var lease protocol.CellLease
		if json.Unmarshal(c.body.Bytes(), &lease) == nil && lease.ID != "" {
			wp.mu.Lock()
			wp.granted[lease.ID] = end
			wp.mu.Unlock()
		}
	case "/workers/result":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var res protocol.FoldResult
		if json.Unmarshal(body, &res) == nil {
			wp.mu.Lock()
			if at, ok := wp.granted[res.Lease]; ok {
				wp.t.record(span{ID: wp.t.id(), Name: "worker", Start: at, End: start, Key: res.Worker})
				delete(wp.granted, res.Lease)
			}
			wp.mu.Unlock()
		}
		wp.t.count("wire.bytes", float64(len(body)))
		wp.h.ServeHTTP(w, r)
		wp.t.record(span{ID: wp.t.id(), Name: "result", Start: start, End: wp.t.now()})
	case "/workers/heartbeat":
		wp.t.count("wire.heartbeats", 1)
		wp.h.ServeHTTP(w, r)
	default:
		wp.h.ServeHTTP(w, r)
	}
}

// runtimeStats are differences of runtime/metrics counters.
type runtimeStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{v[0], v[1], v[2], v[3]}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeStats) add(b runtimeStats) {
	a.allocBytes += b.allocBytes
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children, overlapping children
// counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// The readers below see the folded phases only.

// busy returns the self time per layer, in seconds.
func (t *tracer) busy() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busyS
}

// durations returns the durations, in seconds, of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durs[name]
}

// write stores the spans of the latest traced operation as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.last
	t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
