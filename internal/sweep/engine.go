package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/metrics"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/stats"
	"tctp/internal/wsn"
)

// MetricSummary is the streaming aggregate of one scalar metric over a
// cell's replications.
type MetricSummary struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	SD   float64 `json:"sd"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// VectorSummary is the elementwise aggregate of one vector metric.
// Mean is trimmed to the longest vector any replication produced; N
// counts the replications reaching each position.
type VectorSummary struct {
	Name string    `json:"name"`
	N    []int     `json:"n"`
	Mean []float64 `json:"mean"`
}

// CellResult is one finished cell: its parameter point and the
// aggregated metrics.
type CellResult struct {
	// Index is the cell's position in the spec's enumeration order,
	// counting executed (non-skipped) cells only.
	Index int   `json:"cell"`
	Point Point `json:"point"`
	// Reps is the number of replications folded into the cell: Seeds,
	// or fewer when adaptive early stopping cut the cell short.
	Reps int `json:"reps"`
	// StopReason is non-empty when the cell stopped before the
	// replication ceiling.
	StopReason string          `json:"stop_reason,omitempty"`
	Metrics    []MetricSummary `json:"metrics,omitempty"`
	Vectors    []VectorSummary `json:"vectors,omitempty"`
}

// Metric returns the named metric summary, or a zero summary if the
// cell does not carry it.
func (c *CellResult) Metric(name string) MetricSummary {
	for _, m := range c.Metrics {
		if m.Name == name {
			return m
		}
	}
	return MetricSummary{}
}

// Vector returns the named vector summary, or a zero summary.
func (c *CellResult) Vector(name string) VectorSummary {
	for _, v := range c.Vectors {
		if v.Name == name {
			return v
		}
	}
	return VectorSummary{}
}

// SkippedCell records a cell excluded by the Spec's Skip hook.
type SkippedCell struct {
	Point  Point  `json:"point"`
	Reason string `json:"reason"`
}

// StoppedCell records a cell that adaptive replication cut short of
// the replication ceiling. It rides the same reporting channel as
// SkippedCell: the text sink's footer and tctp-sweep's stderr report.
type StoppedCell struct {
	Point  Point  `json:"point"`
	Reps   int    `json:"reps"`
	Reason string `json:"reason"`
}

// Result is a finished sweep.
type Result struct {
	// Cells holds the executed cells in enumeration order.
	Cells []*CellResult
	// Skipped holds the excluded cells in enumeration order.
	Skipped []SkippedCell
	// Stopped holds the adaptively early-stopped cells in enumeration
	// order.
	Stopped []StoppedCell
	// Runs is the number of replications folded into the result; on
	// Resume this includes the replications restored from the
	// checkpoint, so a resumed sweep finishes with the same count as an
	// uninterrupted one.
	Runs int
}

// Cell returns the executed cell whose point equals p, or nil.
func (r *Result) Cell(p Point) *CellResult {
	for _, c := range r.Cells {
		if c.Point == p {
			return c
		}
	}
	return nil
}

// Progress is a snapshot handed to the Spec's Progress callback.
// Under adaptive replication RunsTotal is the ceiling
// (cells × MaxReps); early-stopped cells finish below it, so RunsDone
// may never reach RunsTotal.
type Progress struct {
	CellsDone, CellsTotal int
	RunsDone, RunsTotal   int
}

// collector streams one cell's replications into accumulators. The
// fold happens strictly in seed order: results arriving early are
// parked in pending until their predecessors land, which keeps the
// floating-point fold order — and therefore the output bits —
// independent of the worker count. Pending never holds more than the
// number of in-flight workers.
type collector struct {
	// next counts the replications folded so far.
	next int
	// stop is the cell's current replication target: the ceiling
	// (Seeds, or Adaptive.MaxReps), shrunk to the folded count when the
	// adaptive rule fires. The cell is finished when next == stop.
	stop       int
	stopReason string
	pending    map[int]*runValues
	scalars    []stats.Accumulator
	vectors    [][]stats.Accumulator
}

// runValues is the outcome of one replication: its metric values, or
// the error that produced neither.
type runValues struct {
	scalars []float64
	vectors [][]float64
	err     error
}

type job struct {
	cell, rep int
}

// engine is the shared state of one Job.Run call.
type engine struct {
	spec   *Spec
	defs   []cellDef
	offset int // global index of defs[0] in the full plan
	sinks  []Sink
	watch  int               // index of the adaptive metric, or -1
	ck     *checkpointWriter // nil when not checkpointing
	cached *cachedCells      // nil unless every cell is settled whole
	plans  *core.Memo        // the job's point-set stage memo
	// cancels holds each in-flight waiting resolve's cancel, by cell;
	// nil unless cached.waits.
	cancels []context.CancelFunc
	endRep  int // replications per cell: maxReps, or 1 for a cached run

	mu         sync.Mutex
	next       job // the next (cell, rep) a worker takes; see take
	collectors []*collector
	records    map[int]checkpointRecord // final fold record per finished cell
	ready      map[int]*CellResult      // finished cells awaiting ordered emission
	emitNext   int
	result     *Result
	cellsDone  int
	err        error
	errOrder   int
	aborted    bool
	ctxErr     error // the context's error, once a worker saw it
}

// Run executes the spec and streams finished cells to the sinks in
// enumeration order. It returns once every cell has completed, the
// context is canceled, or a replication fails; the first error in
// (cell, replication) order wins, regardless of worker count. It is
// Plan + Job.Run; a checkpointed or resumed sweep runs its Job with
// RunOpts.Checkpoint and RunOpts.Resume.
func Run(ctx context.Context, spec Spec, sinks ...Sink) (*Result, error) {
	j, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	p, err := j.Run(ctx, RunOpts{Sinks: sinks})
	if err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// RunOpts configures one Job.Run.
type RunOpts struct {
	// Checkpoint, when non-empty, persists per-cell fold state (the
	// seed-ordered accumulators and the next-replication counter) to
	// this JSONL file after every completed replication, truncating an
	// existing file. An interrupted run leaves a file Resume continues
	// from; for a shard, the finished file is its mergeable artifact
	// (see LoadPartial).
	Checkpoint string
	// Resume continues from the Checkpoint file instead of truncating
	// it; the checkpoint must carry this job's plan fingerprint and
	// shard coordinates. Completed work is skipped, partially folded
	// cells continue at their next replication, and the sinks receive
	// every cell again, so the output is byte-identical to an
	// uninterrupted run.
	Resume bool
	// Sinks receive this job's cells in enumeration order.
	Sinks []Sink
}

// Run executes the job's cells and streams them to the sinks in
// enumeration order, exactly as the spec-level Run does for the whole
// plan: same seeds, same seed-ordered folds, same adaptive stop
// decisions, and cell indices that are global to the plan, so a
// shard's output rows are identical to the corresponding rows of an
// unsharded run. On success the returned Partial carries every cell's
// final fold record, ready for Merge.
func (j *Job) Run(ctx context.Context, opts RunOpts) (*Partial, error) {
	return j.run(ctx, opts, nil, nil)
}

// run executes the job. It is the one pipeline every way of driving a
// sweep goes through: restored maps job-local cell indices to fold
// states validated by Spec.checkState — Merge passes its partials'
// final records, and Resume the records loaded from opts.Checkpoint —
// and every other cell folds live, or, when cached is non-nil
// (RunCached), is settled whole by one job in the same pool. Each
// restored cell continues from its record, or, when finished, is
// finalized in the same pass and emitted through the one ordered path
// live and settled cells take, so no source of fold state can drift
// from another.
func (j *Job) run(ctx context.Context, opts RunOpts, restored map[int]checkpointRecord, cached *cachedCells) (*Partial, error) {
	if opts.Resume && opts.Checkpoint == "" {
		return nil, fmt.Errorf("sweep: Resume needs a checkpoint path")
	}
	sp := &j.spec
	defs := j.defs
	sinks := opts.Sinks
	result := &Result{Skipped: j.skipped}

	// Open the checkpoint before the sinks: a stale or corrupt
	// checkpoint must fail the resume before any sink writes a header.
	var ck *checkpointWriter
	if opts.Checkpoint != "" {
		var err error
		if opts.Resume {
			var validLen int64
			if restored, validLen, err = loadCheckpoint(opts.Checkpoint, j); err != nil {
				return nil, err
			}
			ck, err = appendCheckpoint(opts.Checkpoint, validLen)
		} else {
			ck, err = createCheckpoint(opts.Checkpoint, j.header())
		}
		if err != nil {
			return nil, err
		}
		defer ck.Close()
	}

	for _, s := range sinks {
		if err := s.Begin(sp, len(defs)); err != nil {
			return nil, fmt.Errorf("sweep: sink begin: %w", err)
		}
	}

	e := &engine{
		spec:       sp,
		defs:       defs,
		offset:     j.offset,
		sinks:      sinks,
		watch:      -1,
		ck:         ck,
		cached:     cached,
		plans:      j.plans,
		collectors: make([]*collector, len(defs)),
		records:    make(map[int]checkpointRecord, len(defs)),
		ready:      make(map[int]*CellResult),
		result:     result,
	}
	if sp.Adaptive != nil {
		for i, m := range sp.Metrics {
			if m.Name == sp.Adaptive.Metric {
				e.watch = i
				break
			}
		}
	}
	// A cached run settles each cell as one job, its replication 0.
	e.endRep = sp.maxReps()
	if cached != nil {
		e.endRep = 1
	}
	// Restored cells that are already finished are finalized and
	// emitted up front, before any worker starts.
	e.mu.Lock()
	for i := range defs {
		c := sp.newCollector()
		if rec, ok := restored[i]; ok {
			c.restore(rec)
			if !rec.Stopped {
				// Re-evaluate the stopping rule on the restored prefix:
				// an uninterrupted run checks after every fold, so a
				// resumed one must stop at the same replication.
				e.adaptiveCheck(c)
			}
			result.Runs += rec.Next
		}
		e.collectors[i] = c
		if c.next == c.stop {
			e.finishLocked(i, c, nil)
		}
	}
	preErr := e.err
	e.mu.Unlock()
	if preErr != nil {
		return nil, preErr
	}

	workers := sp.Workers
	if cached != nil && cached.waits {
		// A resolve that waits on an outside party holds no CPU, so
		// every cell resolves at once: a worker fleet sees the whole
		// sweep queued, not a pool's width of it.
		workers = len(defs)
		e.cancels = make([]context.CancelFunc, len(defs))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				jb, ok := e.take(ctx)
				if !ok {
					return
				}
				if cached != nil {
					e.settle(ctx, jb.cell)
					continue
				}
				// Yield once per replication: with every P running a
				// worker, the GC's mark worker otherwise waits up to the
				// 10 ms preemption for a P, with the write barrier and
				// mark assists on (the paper grid at 60 seeds on 2 Ps
				// took 20% longer).
				runtime.Gosched()
				vals, err := e.runOne(jb)
				e.deliver(jb, vals, err)
			}
		}()
	}
	wg.Wait()

	if e.err != nil {
		return nil, e.err
	}
	if e.ctxErr != nil {
		return nil, e.ctxErr
	}
	if ck != nil {
		if err := ck.Close(); err != nil {
			return nil, fmt.Errorf("sweep: checkpoint close: %w", err)
		}
	}
	for _, s := range sinks {
		if err := s.End(result); err != nil {
			return nil, fmt.Errorf("sweep: sink end: %w", err)
		}
	}
	return &Partial{hdr: j.header(), records: e.records, result: result}, nil
}

// header is the checkpoint header this job writes: the plan
// fingerprint plus the job's shard coordinates.
func (j *Job) header() checkpointHeader {
	return checkpointHeader{
		Version:     checkpointVersion,
		Sweep:       j.spec.Name,
		Fingerprint: j.fp,
		Cells:       len(j.defs),
		MaxReps:     j.spec.maxReps(),
		Shard:       j.shard,
		Shards:      j.shards,
		Offset:      j.offset,
		TotalCells:  j.total,
	}
}

// newCollector allocates an empty collector shaped for the spec's
// metrics.
func (s *Spec) newCollector() *collector {
	return &collector{
		stop:    s.maxReps(),
		pending: make(map[int]*runValues),
		scalars: make([]stats.Accumulator, len(s.Metrics)),
		vectors: newVectorAccs(s.Vectors),
	}
}

// restore overwrites the collector's fold state with a checkpoint
// record's bit-exact snapshot.
func (c *collector) restore(rec checkpointRecord) {
	c.next = rec.Next
	for k := range c.scalars {
		c.scalars[k].Restore(rec.Scalars[k])
	}
	for k := range c.vectors {
		for j := range c.vectors[k] {
			c.vectors[k][j].Restore(rec.Vectors[k][j])
		}
	}
	if rec.Stopped {
		c.stop, c.stopReason = rec.Next, rec.Reason
	}
}

// take hands a worker the next job in (cell, replication) order, or
// reports that none is left. The cursor only moves forward: it skips
// finished cells and replications at or past a cell's (possibly
// adaptively frozen) stop, and a cell's first job is its next unfolded
// replication, since nothing of the cell folds before the cursor
// reaches it. No job is taken once the run aborted or the context is
// done; every taken job runs, so the lowest-ordered failing job is
// always executed and its error wins.
func (e *engine) take(ctx context.Context) (job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.aborted && e.ctxErr == nil && e.next.cell < len(e.defs) {
		// A finished cell has no collector; an adaptive stop frees the
		// pool for later cells.
		if c := e.collectors[e.next.cell]; c != nil {
			e.next.rep = max(e.next.rep, c.next)
			if e.next.rep < min(e.endRep, c.stop) {
				if e.ctxErr = ctx.Err(); e.ctxErr != nil {
					break
				}
				jb := e.next
				e.next.rep++
				return jb, true
			}
		}
		e.next = job{cell: e.next.cell + 1}
	}
	return job{}, false
}

// adaptiveCheck shrinks the collector's replication target to the
// folded count once the watched metric's confidence interval meets the
// relative target. It must run after every in-order fold (and once on
// restore) so the decision depends only on the folded prefix.
func (e *engine) adaptiveCheck(c *collector) {
	ad := e.spec.Adaptive
	if ad == nil || e.watch < 0 || c.next >= c.stop || c.next < ad.MinReps {
		return
	}
	if ad.converged(&c.scalars[e.watch]) {
		c.stop = c.next
		c.stopReason = fmt.Sprintf("adaptive: %s CI95 within %g of mean after %d replications",
			ad.Metric, ad.RelCI, c.next)
		for r := range c.pending {
			if r >= c.stop {
				delete(c.pending, r)
			}
		}
	}
}

// emitReadyLocked drains finished cells to the sinks in enumeration
// order and records adaptively stopped cells. Callers hold e.mu.
func (e *engine) emitReadyLocked() {
	for {
		cr, ok := e.ready[e.emitNext]
		if !ok {
			return
		}
		delete(e.ready, e.emitNext)
		for _, s := range e.sinks {
			if serr := s.Cell(cr); serr != nil && e.err == nil {
				e.err = fmt.Errorf("sweep: sink cell %d: %w", cr.Index, serr)
				e.aborted = true
				e.cancelAfterLocked()
				return
			}
		}
		if cr.StopReason != "" {
			e.result.Stopped = append(e.result.Stopped, StoppedCell{
				Point: cr.Point, Reps: cr.Reps, Reason: cr.StopReason,
			})
		}
		e.result.Cells = append(e.result.Cells, cr)
		e.emitNext++
	}
}

// runOne executes a single replication of a single cell.
func (e *engine) runOne(j job) (*runValues, error) {
	sp := e.spec
	d := e.defs[j.cell]
	p := d.point
	seed := sp.BaseSeed + uint64(j.rep)

	// Construct the world: the declarative cell scenario materialized
	// from the replication's scenario stream, or the Spec's bespoke
	// generator. Options always derive from the cell scenario, so the
	// Fleets axis reaches the simulation on both paths.
	st := scenario.SeedStreams(seed)
	sc := sp.cellScenario(d)
	var scn *field.Scenario
	if sp.Scenario != nil {
		scn = sp.Scenario(p, &st.Scenario)
	} else {
		var err error
		if scn, err = sc.Materialize(&st.Scenario); err != nil {
			return nil, fmt.Errorf("sweep: cell %v seed %d: %w", p, seed, err)
		}
	}
	opts := sc.PatrolOptions()
	opts.UseBattery = p.Battery
	if sp.Options != nil {
		sp.Options(p, &opts)
	}
	if d.variant.Options != nil {
		d.variant.Options(&opts)
	}

	// The scenario's events and workloads, after the hooks: their
	// observers come first and the events' handoff policy wins over a
	// hook's. The axis workload sits last (cellScenario appends it), so
	// Env.Data points at it when the axis is on, else at the first
	// declared overlay.
	nets, err := sc.Attach(scn, &st, &opts)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %v seed %d: %w", p, seed, err)
	}
	var data *wsn.Network
	if len(nets) > 0 {
		data = nets[0]
		if d.workload.Enabled() {
			data = nets[len(nets)-1]
		}
	}

	// The Failures axis draws its kills from the failure stream after
	// the scenario's attrition picks, and its handoff policy wins over
	// the scenario's. Every draw is a pure function of (cell, seed), so
	// shards, worker counts and cache replays all see the same world.
	if d.failure.Enabled() {
		h := opts.Horizon
		if h == 0 {
			h = 100_000 // patrol.Options' default horizon
		}
		opts.Events = append(opts.Events,
			patrol.RandomFailures(scn.NumMules(), d.failure.Rate, h, &st.Failure)...)
		if opts.Handoff, err = d.failure.Policy(); err != nil {
			return nil, fmt.Errorf("sweep: cell %v: %w", p, err)
		}
	}

	// The variant and the run each take their own copy of the
	// algorithm stream.
	makeSrc, runSrc := st.Algorithm, st.Algorithm
	alg := d.variant.Make(&makeSrc)
	if d.partition.Enabled() {
		cfg, cerr := d.partition.Config()
		if cerr == nil {
			alg, cerr = patrol.Partitioned(alg, cfg, &st.Partition)
		}
		if cerr != nil {
			return nil, fmt.Errorf("sweep: cell %v: %w", p, cerr)
		}
	}
	// Cells of the same targets share their circuits and paths.
	alg = patrol.Memoized(alg, e.plans)
	res, err := patrol.Run(scn, alg, opts, &runSrc)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %v seed %d: %w", p, seed, err)
	}
	// The recorder goes back for a later replication once every metric
	// has been read; vectors are copied first, since a Vector.Fn may
	// return a slice of one of its logs.
	defer metrics.Release(res.Recorder)

	env := Env{Point: p, Variant: d.variant, Seed: seed, Scenario: scn, Result: res, Fleet: sc.Fleet, Data: data}
	vals := &runValues{scalars: make([]float64, len(sp.Metrics))}
	for i, m := range sp.Metrics {
		vals.scalars[i] = m.Fn(env)
	}
	if len(sp.Vectors) > 0 {
		vals.vectors = make([][]float64, len(sp.Vectors))
		for i, vm := range sp.Vectors {
			v := vm.Fn(env)
			if len(v) > vm.Len {
				v = v[:vm.Len]
			}
			vals.vectors[i] = slices.Clone(v)
		}
	}
	return vals, nil
}

// deliver folds one replication's values into its cell (under the
// engine lock), then persists the cell's new fold state outside it, so
// workers never serialize on checkpoint I/O.
func (e *engine) deliver(j job, vals *runValues, err error) {
	rec := e.fold(j, vals, err)
	if rec == nil {
		return
	}
	if werr := e.ck.write(rec); werr != nil {
		e.mu.Lock()
		if e.err == nil {
			e.err = fmt.Errorf("sweep: checkpoint: %w", werr)
		}
		e.aborted = true
		e.mu.Unlock()
	}
}

// fold incorporates one replication's outcome into its cell, in seed
// order, emits finished cells to the sinks in enumeration order, and
// returns the snapshot to checkpoint (nil when nothing advanced or
// checkpointing is off).
//
// Errors park in pending like values and surface only when the fold
// reaches their replication: whether a failing replication aborts the
// sweep is decided by its seed-order position — never by delivery
// timing — so a failure on a replication beyond a cell's adaptive stop
// is discarded identically at any worker count, and the lowest-ordered
// failing replication always wins. That requires draining to continue
// after an abort (a lower-ordered parked error may still be waiting on
// its predecessors, which were all taken before the abort).
func (e *engine) fold(j job, vals *runValues, err error) *checkpointRecord {
	e.mu.Lock()
	defer e.mu.Unlock()

	c := e.collectors[j.cell]
	if c == nil || j.rep >= c.stop {
		// Beyond the cell's (possibly adaptively frozen) replication
		// target: discard, outcome and error alike.
		return nil
	}
	if vals == nil {
		vals = &runValues{}
	}
	vals.err = err
	c.pending[j.rep] = vals
	advanced := false
	for {
		v, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		if v.err != nil {
			order := j.cell*e.spec.maxReps() + c.next
			if e.err == nil || order < e.errOrder {
				e.err, e.errOrder = v.err, order
			}
			e.aborted = true
			e.cancelAfterLocked()
			return nil // freeze the cell at its failing replication
		}
		c.fold(v)
		c.next++
		e.result.Runs++
		advanced = true
		// The stopping rule sees exactly the folded prefix, so the
		// decision point is deterministic.
		e.adaptiveCheck(c)
	}
	if e.aborted {
		// The drain above still ran — a parked lower-ordered error must
		// be able to surface — but the doomed result is not emitted or
		// checkpointed further.
		return nil
	}
	var rec *checkpointRecord
	if advanced && e.ck != nil {
		rec = snapshotRecord(j.cell, c)
	}
	if c.next == c.stop {
		// The checkpoint snapshot above, when taken, is already the
		// cell's final state — don't deep-copy the accumulators twice.
		if e.finishLocked(j.cell, c, rec); e.aborted {
			return rec
		}
	}
	e.reportLocked()
	return rec
}

// settle resolves a cached run's cell whole — a cache hit, a compute,
// or a remote worker's result, validated by the resolver — and
// restores it as finished. A failed resolve enters fold as the cell's
// replication 0, so the lowest (cell, replication) failure still
// chooses the run's error.
func (e *engine) settle(ctx context.Context, cell int) {
	if e.cancels != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		e.mu.Lock()
		e.cancels[cell] = cancel
		if e.aborted {
			e.cancelAfterLocked()
		}
		e.mu.Unlock()
	}
	st, src, err := e.cached.resolve(ctx, cell)
	if err != nil {
		e.fold(job{cell: cell}, nil, err)
		return
	}
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		return
	}
	rec := checkpointRecord{Cell: cell, FoldState: st}
	c := e.collectors[cell]
	c.restore(rec)
	e.result.Runs += c.next
	cr := e.finishLocked(cell, c, &rec)
	e.reportLocked()
	e.mu.Unlock()
	if e.cached.onCell != nil {
		e.cached.onCell(cell, src, cr)
	}
}

// cancelAfterLocked cancels the waiting resolves of every cell after
// the one whose error the run reports: nothing they return can change
// that error, and a scheduler withdraws a cancelled cell rather than
// have a worker compute it for nobody. Resolves of earlier cells run
// on, since a failure among them would win. Callers hold e.mu.
func (e *engine) cancelAfterLocked() {
	if e.cancels == nil {
		return
	}
	for _, cancel := range e.cancels[e.errOrder/e.spec.maxReps()+1:] {
		if cancel != nil {
			cancel()
		}
	}
}

// finishLocked retires a cell folded to its stop: it keeps the cell's
// final record (rec, or a snapshot when rec is nil), finalizes its
// result and emits every cell now in enumeration order. Callers hold
// e.mu.
func (e *engine) finishLocked(cell int, c *collector, rec *checkpointRecord) *CellResult {
	if rec == nil {
		rec = snapshotRecord(cell, c)
	}
	e.records[cell] = *rec
	cr := e.finalize(cell, c)
	e.ready[cell] = cr
	e.collectors[cell] = nil
	e.emitReadyLocked()
	if !e.aborted {
		e.cellsDone++
	}
	return cr
}

// reportLocked hands the job's totals to Spec.Progress. Callers
// hold e.mu.
func (e *engine) reportLocked() {
	if e.spec.Progress == nil {
		return
	}
	e.spec.Progress(Progress{
		CellsDone:  e.cellsDone,
		CellsTotal: len(e.defs),
		RunsDone:   e.result.Runs,
		RunsTotal:  len(e.defs) * e.spec.maxReps(),
	})
}

func (c *collector) fold(v *runValues) {
	for i := range v.scalars {
		c.scalars[i].Add(v.scalars[i])
	}
	for i, vec := range v.vectors {
		for k, x := range vec {
			c.vectors[i][k].Add(x)
		}
	}
}

// finalize builds the cell's result under the engine lock; the index
// is global to the plan, so a shard's cells carry the same indices an
// unsharded run would give them.
func (e *engine) finalize(cell int, c *collector) *CellResult {
	sp := e.spec
	cr := &CellResult{
		Index: e.offset + cell, Point: e.defs[cell].point,
		Reps: c.next, StopReason: c.stopReason,
	}
	for i, m := range sp.Metrics {
		a := &c.scalars[i]
		cr.Metrics = append(cr.Metrics, MetricSummary{
			Name: m.Name, N: a.N(),
			Mean: a.Mean(), SD: a.SD(), CI95: a.CI95(),
			Min: a.Min(), Max: a.Max(),
		})
	}
	for i, vm := range sp.Vectors {
		accs := c.vectors[i]
		used := 0
		for k := range accs {
			if accs[k].N() > 0 {
				used = k + 1
			}
		}
		vs := VectorSummary{Name: vm.Name, N: make([]int, used), Mean: make([]float64, used)}
		for k := 0; k < used; k++ {
			vs.N[k] = accs[k].N()
			vs.Mean[k] = accs[k].Mean()
		}
		cr.Vectors = append(cr.Vectors, vs)
	}
	return cr
}

func newVectorAccs(vms []VectorMetric) [][]stats.Accumulator {
	if len(vms) == 0 {
		return nil
	}
	out := make([][]stats.Accumulator, len(vms))
	for i, vm := range vms {
		out[i] = make([]stats.Accumulator, vm.Len)
	}
	return out
}
