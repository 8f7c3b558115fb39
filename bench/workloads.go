package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
)

// workload is one set of inputs the benchmark drives through the CLIs.
type workload struct {
	name string
	why  string
	// prepare builds the workload's references outside every timed
	// phase and returns its runner.
	prepare func(b *bench) (runner, error)
}

// runner measures one workload.
type runner interface {
	// run measures operations against the CLIs, as subprocesses and
	// without tracing, for dur (at least one operation).
	run(dur time.Duration, r *result) error
	// inProcess runs one operation in-process through the layers'
	// public functions, with timing wrappers at their seams when t is
	// not nil, and checks its output against the CLIs' byte for byte.
	// Where the subprocess operation is made of independent parts (the
	// experiments of paper-eval, the requests of service-warm), the
	// in-process operation is one part or a few, taken in turn. It runs
	// only after run.
	inProcess(t *tracer, r *result) error
}

// The workloads are the sweep plane's three execution paths over the
// paper grid: computed locally, answered from a warm cache, and leased
// to a worker fleet. There are only three so that each run can be long:
// host load on the baseline machine moves a 10-second run's median by a
// quarter or more (see bench/README.md, Host load).
var workloads = []workload{
	{
		name: "paper-local",
		why:  "The §5.1 paper grid (5 algorithms × 5 target counts × 4 fleet sizes) in local tctp-sweep: the Job.Run path, where simulation dominates.",
		prepare: func(b *bench) (runner, error) {
			return &cliSweep{b: b, cells: paperGrid.cells()}, nil
		},
	},
	{
		name: "service-warm",
		why:  "Two closed-loop clients sending seeded sub-grids to a warm tctp-server: all cache hits, so only cache probe, emit and HTTP run, no simulation.",
		prepare: func(b *bench) (runner, error) {
			return newServiceWarm(b)
		},
	},
	{
		name: "remote-2w",
		why:  "The paper grid leased to two 1-core tctp-worker processes: the only workload that runs the dispatch queue, lease long-polls and the wire format.",
		prepare: func(b *bench) (runner, error) {
			return newRemote(b)
		},
	},
}

// bench is one benchmark invocation's shared state.
type bench struct {
	ctx  context.Context
	h    *harness
	seed uint64
	size sizes
}

// sizes scales the workloads.
type sizes struct {
	remoteRequests int     // paper-grid requests a run of remote-2w cycles through
	horizon        float64 // simulated seconds of the sweeps; 0 keeps the preset's
	setupSamples   int     // set-up measurements per run
	warmRequests   int     // warm requests per round of service-warm
}

// One paper-grid request of one replication keeps an operation of
// paper-local and remote-2w under a second on an unloaded two-core
// machine, so that a run reports the median of a few dozen. Its work
// depends on its seed (its random field): the simulated visits of one
// request differ by about an eighth from seed to seed, and its time with
// them, so the more distinct requests a run holds, the less its median
// depends on the run's seed. paper-local sends a new request in every
// operation. remote-2w cycles through remoteRequests of them, because
// each needs a local reference run before the timed phase, about as long
// as the operation itself.
var (
	fullSize  = sizes{remoteRequests: 16, setupSamples: 51, warmRequests: 2000}
	smokeSize = sizes{remoteRequests: 2, horizon: 2000, setupSamples: 3, warmRequests: 50}
)

// gridSeeds is the replication count of every paper-grid request.
const gridSeeds = 1

// fleetSize is the worker count of remote-2w.
const fleetSize = 2

// paperRequest is paper-grid request i of a run: it replicates with
// seed S+i alone.
func (b *bench) paperRequest(i int) protocol.SweepRequest {
	return paperGrid.request(gridSeeds, b.seed+uint64(i*gridSeeds), b.size.horizon)
}

// until runs op repeatedly for about dur, at least once. Another
// operation starts only if, taking as long as the last one, it would
// end less than half an operation past dur.
func (b *bench) until(dur time.Duration, op func() error) error {
	deadline := time.Now().Add(dur)
	for {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := op(); err != nil {
			return err
		}
		took := time.Since(start)
		if time.Now().Add(took / 2).After(deadline) {
			return nil
		}
	}
}

// interleave runs the workload's in-process operation for about dur in
// pairs, one untraced (into plain) and one traced (into traced), and
// swaps which of the two goes first from pair to pair, so that host
// load falls on both alike and their difference is the cost of the
// wrappers alone.
func (b *bench) interleave(dur time.Duration, d runner, tr *tracer, traced, plain *result) error {
	pairs := 0
	return b.until(dur, func() error {
		ops := []func() error{
			func() error { return d.inProcess(nil, plain) },
			func() error { return tr.phase(func() error { return d.inProcess(tr, traced) }) },
		}
		if pairs%2 == 1 {
			ops[0], ops[1] = ops[1], ops[0]
		}
		pairs++
		for _, op := range ops {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	})
}

// reference runs a sweep request once through local tctp-sweep,
// outside every timed phase, and returns its checked CSV: the bytes the
// service and the worker fleet must reproduce.
func (b *bench) reference(req protocol.SweepRequest, cells int) (table, error) {
	out, err := b.h.run(b.ctx, "tctp-sweep", sweepArgs(req)...)
	if err != nil {
		return table{}, fmt.Errorf("reference run: %w", err)
	}
	if bad, msg := verifySweep(out.stdout, nil, req.Seeds, cells); bad > 0 {
		return table{}, fmt.Errorf("reference run: %d wrong cells: %s", bad, msg)
	}
	return splitCSV(out.stdout)
}

// serverSetups measures r's set-up samples with bare server launches:
// process start until /stats answers.
func (b *bench) serverSetups(r *result, logName string) error {
	return measureSetups(r, b.size.setupSamples, func() (time.Duration, error) {
		srv, setup, err := b.h.startServer(b.ctx, logName)
		if err != nil {
			return 0, err
		}
		srv.stop()
		return setup, nil
	})
}

// cliSweep drives paper-grid requests through tctp-sweep
// (paper-local): request i in operation i.
type cliSweep struct {
	b     *bench
	cells int
	// first is request 0's first output: the reference for its repeat
	// and for the traced run.
	first *table
}

// check verifies request i's output: request 0's against its first
// output, once there is one, and every request's structurally.
func (d *cliSweep) check(i int, out []byte) (int, string) {
	var want *table
	if i == 0 {
		want = d.first
	}
	bad, msg := verifySweep(out, want, gridSeeds, d.cells)
	if i == 0 && d.first == nil && bad == 0 {
		t, _ := splitCSV(out)
		d.first = &t
	}
	return bad, msg
}

// sweep runs request i through tctp-sweep and checks its output.
func (d *cliSweep) sweep(i int) (cliRun, int, string) {
	out, err := d.b.h.run(d.b.ctx, "tctp-sweep", sweepArgs(d.b.paperRequest(i))...)
	if err != nil {
		return out, d.cells, err.Error()
	}
	bad, msg := d.check(i, out.stdout)
	return out, bad, msg
}

func (d *cliSweep) run(dur time.Duration, r *result) error {
	// Set-up is an empty shard of the same sweep: process start, flag
	// parsing, build.Spec, Plan and the plan fingerprint, with no cell
	// to run.
	args := sweepArgs(d.b.paperRequest(0))
	err := measureSetups(r, d.b.size.setupSamples, func() (time.Duration, error) {
		out, err := d.b.h.run(d.b.ctx, "tctp-sweep", append(args[:len(args):len(args)], "-shard", "1/1000000")...)
		return out.wall, err
	})
	if err != nil {
		return err
	}
	var k float64
	next := 0
	err = d.b.until(dur, func() error {
		i := next
		next++
		return calibrated(r, &k, func() error {
			out, failed, msg := d.sweep(i)
			r.addSerial(sample{wall: out.wall, cpu: out.cpu, rssMB: out.rssMB, cells: d.cells, failed: failed}, msg)
			return d.b.ctx.Err()
		})
	})
	if err != nil {
		return err
	}
	// A repeat of request 0, untimed, must produce the same bytes.
	_, failed, msg := d.sweep(0)
	r.checked(d.cells, failed, msg)
	return d.b.ctx.Err()
}

// inProcess runs request 0, whose output the subprocess run fixed.
func (d *cliSweep) inProcess(t *tracer, r *result) error {
	var csv bytes.Buffer
	wall, err := t.op(func(t *tracer) error {
		spec, err := build.Spec(d.b.paperRequest(0))
		if err != nil {
			return err
		}
		if err := t.instrument(&spec); err != nil {
			return err
		}
		job, err := sweep.Plan(spec)
		if err != nil {
			return err
		}
		_, err = job.Run(d.b.ctx, sweep.RunOpts{Sinks: []sweep.Sink{t.sink(sweep.CSV, &csv)}})
		return err
	})
	s := sample{wall: wall, cells: d.cells}
	var msg string
	if err != nil {
		s.failed, msg = d.cells, err.Error()
	} else {
		s.failed, msg = d.check(0, csv.Bytes())
	}
	r.addSerial(s, msg)
	return d.b.ctx.Err()
}

// newServerStore is a cell cache configured with tctp-server's
// defaults.
func newServerStore() (*cache.Store, error) {
	return cache.New(cache.Options{MaxBytes: cache.DefaultMaxBytes, Gate: runtime.GOMAXPROCS(0)})
}

// resolveFunc is RunCached's Resolve hook.
type resolveFunc = func(ctx context.Context, rc sweep.ResolveCell) (protocol.FoldState, protocol.Source, error)

// inProcessSweep is the in-process twin of one POST /sweeps plus GET
// result.csv: build and plan the request (the server's submit), then
// run it through the cell store with the server's CSV and JSONL sinks.
// A non-nil resolver builds, from the planned job, the Resolve hook
// that replaces the store's Fold, as the remote plane's scheduler does.
func inProcessSweep(ctx context.Context, t *tracer, store sweep.CellStore, req protocol.SweepRequest, resolver func(*sweep.Job) resolveFunc) ([]byte, error) {
	var job *sweep.Job
	var err error
	t.timed("request", 0, "", func() {
		var spec sweep.Spec
		if spec, err = build.Spec(req); err != nil {
			return
		}
		if err = t.instrument(&spec); err != nil {
			return
		}
		job, err = sweep.Plan(spec)
	})
	if err != nil {
		return nil, err
	}
	var resolve resolveFunc
	if resolver != nil {
		resolve = resolver(job)
	}
	var csv, jsonl bytes.Buffer
	_, err = job.RunCached(ctx, sweep.CacheRunOpts{
		Store:   store,
		Resolve: resolve,
		Sinks:   []sweep.Sink{t.sink(sweep.CSV, &csv), t.sink(sweep.JSONL, &jsonl)},
	})
	return csv.Bytes(), err
}

// serviceWarm drives a warm tctp-server with two closed-loop
// connections sending seeded sub-grids of the paper grid. A round is a
// fresh server, the full grid once to fill its cache (checked, not
// timed), then a fixed number of warm requests; rounds repeat for the
// run's duration. The request count per round is fixed because the
// server keeps every finished sweep in memory: its peak RSS grows with
// the requests it has served. Each operation is one warm request.
type serviceWarm struct {
	b     *bench
	req   protocol.SweepRequest
	ref   table
	store *cache.Store // the in-process operations' warm cache
	sent  [2]int       // in-process requests sent so far: [0] untraced, [1] traced
}

func newServiceWarm(b *bench) (runner, error) {
	d := &serviceWarm{b: b, req: b.paperRequest(0)}
	var err error
	d.ref, err = b.reference(d.req, paperGrid.cells())
	return d, err
}

// closedLoop sends the warm requests first, ..., first+n-1 over
// maxConns connections, each sending its next request only after the
// previous one completed. send handles request i and returns its sample
// and output; the outputs are checked once all are answered, so
// checking takes no processor time from the server while it is being
// measured.
func (d *serviceWarm) closedLoop(r *result, first, n int, send func(i int) (sample, []byte, error)) error {
	samples := make([]sample, n)
	outs := make([][]byte, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d.b.ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				samples[k], outs[k], errs[k] = send(first + k)
			}
		}()
	}
	wg.Wait()
	if err := d.b.ctx.Err(); err != nil {
		return err
	}
	for k, s := range samples {
		i := first + k
		g := warmGrid(d.b.seed, i)
		s.cells = g.cells()
		var msg string
		if errs[k] != nil {
			s.failed, msg = s.cells, errs[k].Error()
		} else if want, err := d.ref.subgrid(g); err != nil {
			s.failed, msg = s.cells, err.Error()
		} else {
			s.failed, msg = verifySweep(outs[k], &want, d.req.Seeds, s.cells)
		}
		r.ops = append(r.ops, s)
		r.problem(msg)
	}
	return nil
}

// request returns the warm request i: a sub-grid of the full grid,
// under the same replication protocol.
func (d *serviceWarm) request(i int) protocol.SweepRequest {
	return warmGrid(d.b.seed, i).request(d.req.Seeds, d.req.BaseSeed, d.req.Horizon)
}

func (d *serviceWarm) run(dur time.Duration, r *result) error {
	if err := d.b.until(dur, func() error { return d.round(r) }); err != nil {
		return err
	}
	return d.b.serverSetups(r, "service-warm.log")
}

// warmChunk is the number of warm requests between two kernel passes: a
// few tenths of a second of traffic, so that the calibration sees the
// same host load as the requests it scales.
const warmChunk = 200

func (d *serviceWarm) round(r *result) error {
	srv, _, err := d.b.h.startServer(d.b.ctx, "service-warm.log")
	if err != nil {
		return err
	}
	defer srv.stop()
	csv, _, err := srv.sweep(d.b.ctx, d.req)
	if err != nil {
		return fmt.Errorf("warming the cache: %w", err)
	}
	bad, msg := verifySweep(csv, &d.ref, d.req.Seeds, paperGrid.cells())
	if msg != "" {
		msg = "cache fill: " + msg
	}
	r.checked(paperGrid.cells(), bad, msg)
	st0, err := srv.stats(d.b.ctx)
	if err != nil {
		return err
	}
	cpu0, _, err := srv.usage()
	if err != nil {
		return err
	}
	first := len(r.ops)
	var k float64
	for sent := 0; sent < d.b.size.warmRequests; sent += warmChunk {
		n := min(warmChunk, d.b.size.warmRequests-sent)
		err := calibrated(r, &k, func() error {
			return d.closedLoop(r, sent, n, func(i int) (sample, []byte, error) {
				out, rt, err := srv.sweep(d.b.ctx, d.request(i))
				return sample{wall: rt.total(), rt: rt}, out, err
			})
		})
		if err != nil {
			return err
		}
	}
	// The server's processor time is read per round: /proc counts it in
	// hundredths of a second, too coarse for one chunk.
	cpu1, rss, err := srv.usage()
	if err != nil {
		return err
	}
	st1, err := srv.stats(d.b.ctx)
	if err != nil {
		return err
	}
	ops := r.ops[first:]
	for i := range ops {
		ops[i].cpu, ops[i].rssMB = (cpu1-cpu0)/float64(len(ops)), rss
	}
	r.note("cache.hit_ratio", st1.Cache.sub(st0.Cache).hitRatio())
	return nil
}

// inProcessBatch is the number of warm requests per in-process
// operation. A whole round of untraced requests and one of traced
// requests, each about half a second, differed by up to half from host
// load alone; batches of a few milliseconds alternate fast enough for
// both to see the same host.
const inProcessBatch = 50

// inProcess sends the next batch of warm traffic to an in-process cell
// store, warmed once, untimed, on first use. The untraced and the
// traced batches each walk the same request sequence.
func (d *serviceWarm) inProcess(t *tracer, r *result) error {
	if d.store == nil {
		store, err := newServerStore()
		if err != nil {
			return err
		}
		spec, err := build.Spec(d.req)
		if err != nil {
			return err
		}
		job, err := sweep.Plan(spec)
		if err != nil {
			return err
		}
		if _, err := job.RunCached(d.b.ctx, sweep.CacheRunOpts{Store: store}); err != nil {
			return err
		}
		d.store = store
	}
	side := 0
	if t != nil {
		side = 1
	}
	first := d.sent[side]
	d.sent[side] += inProcessBatch
	return d.closedLoop(r, first, inProcessBatch, func(i int) (sample, []byte, error) {
		var out []byte
		wall, err := t.op(func(t *tracer) (err error) {
			out, err = inProcessSweep(d.b.ctx, t, t.cellStore(d.store), d.request(i), nil)
			return err
		})
		return sample{wall: wall}, out, err
	})
}

// remote drives a fresh tctp-server in remote mode with fleetSize
// tctp-worker processes per operation, sending the paper-grid requests
// in turn.
type remote struct {
	b    *bench
	reqs []protocol.SweepRequest
	refs []table // each request's output from local tctp-sweep
}

func newRemote(b *bench) (runner, error) {
	d := &remote{b: b}
	for i := range b.size.remoteRequests {
		d.reqs = append(d.reqs, b.paperRequest(i))
	}
	for _, req := range d.reqs {
		ref, err := b.reference(req, paperGrid.cells())
		if err != nil {
			return nil, err
		}
		d.refs = append(d.refs, ref)
	}
	return d, nil
}

func (d *remote) run(dur time.Duration, r *result) error {
	cells := paperGrid.cells()
	var k float64
	next := 0
	err := d.b.until(dur, func() error {
		i := next % len(d.reqs)
		next++
		return calibrated(r, &k, func() error {
			s := sample{cells: cells}
			if msg := d.op(i, &s, r); msg != "" {
				s.failed = cells
				r.problem(msg)
			}
			r.addSerial(s, "")
			return d.b.ctx.Err()
		})
	})
	if err != nil {
		return err
	}
	return d.b.serverSetups(r, "remote-2w.log")
}

// op runs request i on a fresh fleet; a non-empty return is a failure
// of the whole operation.
func (d *remote) op(i int, s *sample, r *result) string {
	srv, _, err := d.b.h.startServer(d.b.ctx, "remote-2w.log", "-workers", "remote", "-lease-ttl", "10s")
	if err != nil {
		return err.Error()
	}
	defer srv.stop()
	procs := []*daemon{srv.daemon}
	for i := 1; i <= fleetSize; i++ {
		// Each worker gets one core, so the fleet uses the machine's two.
		w, err := d.b.h.launch("tctp-worker", fmt.Sprintf("remote-2w-w%d.log", i), []string{"GOMAXPROCS=1"},
			"-server", srv.url, "-id", fmt.Sprintf("w%d", i), "-concurrency", "1")
		if err != nil {
			return err.Error()
		}
		defer w.stop()
		procs = append(procs, w)
	}
	cpu0, _, err := usage(procs)
	if err != nil {
		return err.Error()
	}
	out, rt, err := srv.sweep(d.b.ctx, d.reqs[i])
	if err != nil {
		return err.Error()
	}
	cpu1, rss, err := usage(procs)
	if err != nil {
		return err.Error()
	}
	st, err := srv.stats(d.b.ctx)
	if err != nil {
		return err.Error()
	}
	s.wall, s.rt, s.cpu, s.rssMB = rt.total(), rt, cpu1-cpu0, rss
	if sc := st.Scheduler; sc != nil {
		r.note("dispatch.recompute_ratio", float64(sc.RemoteComputed)/float64(s.cells))
		r.note("dispatch.expired", float64(sc.Expired))
		r.note("dispatch.reassigned", float64(sc.Reassigned))
	}
	var msg string
	s.failed, msg = verifySweep(out, &d.refs[i], gridSeeds, s.cells)
	r.problem(msg)
	return ""
}

// usage sums the CPU time and takes the largest peak RSS of processes.
func usage(procs []*daemon) (cpu, rssMB float64, err error) {
	for _, p := range procs {
		c, m, err := p.usage()
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		rssMB = max(rssMB, m)
	}
	return cpu, rssMB, nil
}

// inProcess mirrors the server's remote path in-process: a dispatch
// scheduler over the (timed) store, the server's worker endpoints
// (behind a timing handler) on a loopback listener, and RunCached whose
// Resolve is the (timed) Scheduler.Resolve, for the first request. The
// fleet is the same fleetSize tctp-worker processes, one core each, as
// in the subprocess run: worker loops inside this process would share
// its heap and collector, which slows their simulations by a quarter or
// more.
func (d *remote) inProcess(t *tracer, r *result) error {
	store, err := newServerStore()
	if err != nil {
		return err
	}
	sched, err := dispatch.New(dispatch.Options{Store: t.dispatchStore(store), LeaseTTL: 10 * time.Second})
	if err != nil {
		return err
	}
	defer sched.Close()
	srv, err := server.New(server.Config{Store: store, Dispatch: sched})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: t.workerPlane(srv)}
	go hs.Serve(ln)
	defer hs.Close()
	for i := 1; i <= fleetSize; i++ {
		w, err := d.b.h.launch("tctp-worker", fmt.Sprintf("remote-2w-inprocess-w%d.log", i), []string{"GOMAXPROCS=1"},
			"-server", "http://"+ln.Addr().String(), "-id", fmt.Sprintf("w%d", i), "-concurrency", "1")
		if err != nil {
			return err
		}
		defer w.stop()
	}

	resolver := func(job *sweep.Job) resolveFunc {
		return func(ctx context.Context, rc sweep.ResolveCell) (protocol.FoldState, protocol.Source, error) {
			var st protocol.FoldState
			var src protocol.Source
			var err error
			t.timed("resolve", 0, rc.Key, func() {
				st, src, err = sched.Resolve(ctx, dispatch.Cell{
					Sweep: "s1", Index: rc.Index, Key: rc.Key, Fingerprint: job.Fingerprint(),
					Request: d.reqs[0], Validate: rc.Validate,
				})
			})
			return st, src, err
		}
	}
	cells := paperGrid.cells()
	var out []byte
	wall, err := t.op(func(t *tracer) (err error) {
		out, err = inProcessSweep(d.b.ctx, t, nil, d.reqs[0], resolver)
		return err
	})
	s := sample{wall: wall, cells: cells}
	var msg string
	if err != nil {
		s.failed, msg = cells, err.Error()
	} else {
		s.failed, msg = verifySweep(out, &d.refs[0], gridSeeds, cells)
		t.count("dispatch.cells", float64(cells))
	}
	r.addSerial(s, msg)
	return d.b.ctx.Err()
}
