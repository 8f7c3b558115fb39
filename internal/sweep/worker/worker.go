// Package worker is the compute side of the remote plane: a loop that
// pulls cell leases from a tctp-server, computes each cell through the
// engine's single-cell sub-job path, and posts the bit-exact fold
// state back.
//
// The loop is deliberately paranoid about identity. For every lease it
// rebuilds the sweep spec from the lease's transport-neutral request
// (internal/sweep/build — the same translator the server and the CLI
// use), checks the plan fingerprint, and recomputes the leased cell's
// content-addressed key; any mismatch means this binary would compute
// different numbers than the server expects, so the worker reports an
// error instead of posting a silently wrong state. Within a matching
// build, the computed state is identical to what a local run would
// fold — same seeds, same seed-ordered fold, same adaptive stops — so
// a fleet of these workers changes sweep throughput, never bytes.
//
// Each lease request opts in to a chunk: several cells of one sweep,
// granted in one exchange and computed in order (see
// internal/sweep/dispatch for how the server sizes it). One heartbeat
// loop per chunk ticks at a third of the lease TTL. Each tick first
// posts, in one exchange, the results finished since the last tick,
// then extends every lease still held, the cells not yet started
// included. So a chunk may outlast the TTL many times over, and a
// worker that dies loses at most a tick of finished work. A stale ack
// (the server expired or reassigned a lease) skips that cell, or
// cancels it mid-compute rather than wasting the rest of it.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

// Options configures one worker process.
type Options struct {
	// Server is the tctp-server base URL (required), e.g.
	// "http://host:8080".
	Server string
	// ID identifies this worker to the scheduler; stable across its
	// leases. Default "<hostname>-<pid>".
	ID string
	// Concurrency is how many cells this worker computes at once
	// (each cell additionally parallelizes its replications over the
	// machine's cores). Default 1.
	Concurrency int
	// Poll is the long-poll horizon sent with each lease request.
	// Default 15s.
	Poll time.Duration
	// Client, when non-nil, replaces http.DefaultClient.
	Client *http.Client
	// Logf, when non-nil, receives the worker's progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Server == "" {
		return opts, fmt.Errorf("worker: Options.Server is required")
	}
	opts.Server = strings.TrimRight(opts.Server, "/")
	if opts.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Poll <= 0 {
		opts.Poll = 15 * time.Second
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts, nil
}

// Run pulls and computes leases until ctx is cancelled (clean
// shutdown, returns nil) or the options are unusable. Transient
// failures — server down, network errors, refused results — are
// logged and retried with backoff, never fatal: a worker outlives the
// server restarts around it.
func Run(ctx context.Context, o Options) error {
	return run(ctx, o, (*sweep.Job).ComputeCell)
}

// run is Run with the cell computation as a parameter, so tests can
// slow or stall it.
func run(ctx context.Context, o Options, computeCell func(*sweep.Job, context.Context, int) (protocol.FoldState, error)) error {
	opts, err := o.withDefaults()
	if err != nil {
		return err
	}
	w := &worker{opts: opts, jobs: make(map[string]*sweep.Job), computeCell: computeCell}
	var wg sync.WaitGroup
	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

type worker struct {
	opts        Options
	computeCell func(*sweep.Job, context.Context, int) (protocol.FoldState, error)

	mu   sync.Mutex
	jobs map[string]*sweep.Job // by plan fingerprint
}

// loop is one lease slot: poll, compute the granted chunk, repeat.
func (w *worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
		lease, err := w.pullLease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.opts.Logf("worker %s: lease poll: %v", w.opts.ID, err)
			w.sleep(ctx, time.Second)
			continue
		}
		if lease == nil {
			continue // empty poll; ask again
		}
		w.serve(ctx, lease)
	}
}

// pullLease long-polls the server for a chunk of leases; nil means the
// poll came back empty.
func (w *worker) pullLease(ctx context.Context) (*protocol.CellLease, error) {
	// Bound the request a margin past the server's poll horizon so a
	// hung connection cannot park the slot forever.
	rctx, cancel := context.WithTimeout(ctx, w.opts.Poll+15*time.Second)
	defer cancel()
	req := protocol.LeaseRequest{Worker: w.opts.ID, WaitSeconds: int(w.opts.Poll / time.Second)}
	status, body, err := w.post(rctx, "/workers/lease", req)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var lease protocol.CellLease
		if err := json.Unmarshal(body, &lease); err != nil {
			return nil, fmt.Errorf("malformed lease: %w", err)
		}
		return &lease, nil
	default:
		return nil, fmt.Errorf("lease: %s", httpError(status, body))
	}
}

// chunk is one granted chunk in progress: its cells, top-level cell
// first, and what the worker knows of each.
type chunk struct {
	lease *protocol.CellLease
	cells []protocol.ChunkCell

	mu       sync.Mutex
	finished []bool                // computed (or failed): its lease needs no more beats
	stale    []bool                // the server revoked the lease: skip the cell
	current  int                   // cell being computed, or -1
	cancel   context.CancelFunc    // cancels the current cell's compute
	pending  []protocol.FoldResult // finished results not yet posted
}

// serve computes a chunk's cells in order and posts their results.
// One heartbeat loop keeps every held lease alive, the cells not yet
// started included, and posts the results finished since its last
// tick, so a worker that dies loses at most a tick of finished work. A
// cell whose lease comes back stale is skipped, or abandoned mid-
// compute.
func (w *worker) serve(ctx context.Context, lease *protocol.CellLease) {
	cells := append([]protocol.ChunkCell{{ID: lease.ID, Cell: lease.Cell, Key: lease.Key}}, lease.More...)
	ch := &chunk{
		lease:    lease,
		cells:    cells,
		finished: make([]bool, len(cells)),
		stale:    make([]bool, len(cells)),
		current:  -1,
	}
	stop := w.heartbeat(ctx, ch)

	job, jerr := w.job(lease)
	for i, c := range cells {
		cellCtx, cancel := context.WithCancel(ctx)
		ch.mu.Lock()
		if ch.stale[i] {
			ch.mu.Unlock()
			cancel()
			continue
		}
		ch.current, ch.cancel = i, cancel
		ch.mu.Unlock()

		res := protocol.FoldResult{Lease: c.ID, Worker: w.opts.ID, Key: c.Key}
		err := jerr
		if err == nil {
			var st protocol.FoldState
			if st, err = w.compute(cellCtx, job, lease.Sweep, c); err == nil {
				res.State = &st
			}
		}
		cancel()
		if ctx.Err() != nil {
			stop()
			return // dying mid-chunk: say nothing more, the leases will expire
		}

		ch.mu.Lock()
		ch.current, ch.cancel = -1, nil
		ch.finished[i] = true
		if !ch.stale[i] {
			if err != nil {
				res.Error = err.Error()
				w.opts.Logf("worker %s: cell %d (%s): %v", w.opts.ID, c.Cell, c.ID, err)
			}
			ch.pending = append(ch.pending, res)
		}
		ch.mu.Unlock()
	}
	stop()
	w.flush(ctx, ch)
}

// compute verifies a chunk cell is the one this binary would compute
// and runs it.
func (w *worker) compute(ctx context.Context, job *sweep.Job, sweepID string, c protocol.ChunkCell) (protocol.FoldState, error) {
	if c.Cell < 0 || c.Cell >= job.Cells() {
		return protocol.FoldState{}, fmt.Errorf("lease cell %d outside plan of %d cells", c.Cell, job.Cells())
	}
	key, err := job.CellKey(c.Cell)
	if err != nil {
		return protocol.FoldState{}, err
	}
	if key != c.Key {
		return protocol.FoldState{}, fmt.Errorf("cell %d key mismatch: lease says %s, this build computes %s",
			c.Cell, c.Key, key)
	}
	start := time.Now()
	st, err := w.computeCell(job, ctx, c.Cell)
	if err != nil {
		return protocol.FoldState{}, err
	}
	w.opts.Logf("worker %s: computed cell %d of %s in %v", w.opts.ID, c.Cell, sweepID, time.Since(start).Round(time.Millisecond))
	return st, nil
}

// job returns the planned job for the lease's request, memoized by
// plan fingerprint — a fleet serving one sweep plans it once, not once
// per chunk.
func (w *worker) job(lease *protocol.CellLease) (*sweep.Job, error) {
	w.mu.Lock()
	if job, ok := w.jobs[lease.Fingerprint]; ok {
		w.mu.Unlock()
		return job, nil
	}
	w.mu.Unlock()

	spec, err := build.Spec(lease.Request)
	if err != nil {
		return nil, fmt.Errorf("rebuilding sweep from lease: %w", err)
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		return nil, fmt.Errorf("planning leased sweep: %w", err)
	}
	if lease.Fingerprint != "" && job.Fingerprint() != lease.Fingerprint {
		return nil, fmt.Errorf("plan fingerprint mismatch: lease says %s, this build plans %s",
			lease.Fingerprint, job.Fingerprint())
	}
	w.mu.Lock()
	w.jobs[lease.Fingerprint] = job
	w.mu.Unlock()
	return job, nil
}

// heartbeat ticks at a third of the lease TTL until stopped: each tick
// posts the chunk's finished results, then extends its held leases.
// The returned stop waits for the loop to end.
func (w *worker) heartbeat(ctx context.Context, ch *chunk) (stop func()) {
	ttl := time.Duration(ch.lease.TTLSeconds) * time.Second
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	interval := ttl / 3
	if interval < 200*time.Millisecond {
		interval = 200 * time.Millisecond
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.flush(ctx, ch)
				w.beat(ctx, ch, interval)
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// beat extends the chunk's held leases in one post. A stale ack marks
// its cell stale: skipped if not started, cancelled if computing, and
// its result dropped if finished since the beat was sent.
func (w *worker) beat(ctx context.Context, ch *chunk, timeout time.Duration) {
	var idx []int
	var hb protocol.LeaseHeartbeat
	ch.mu.Lock()
	for i, done := range ch.finished {
		if done || ch.stale[i] {
			continue
		}
		if idx = append(idx, i); len(idx) == 1 {
			hb = protocol.LeaseHeartbeat{Lease: ch.cells[i].ID, Worker: w.opts.ID}
		} else {
			hb.More = append(hb.More, ch.cells[i].ID)
		}
	}
	ch.mu.Unlock()
	if len(idx) == 0 {
		return
	}
	hctx, cancel := context.WithTimeout(ctx, timeout)
	_, body, err := w.post(hctx, "/workers/heartbeat", hb)
	cancel()
	if err != nil {
		return // transient; the next beat retries
	}
	var ack protocol.LeaseAck
	if json.Unmarshal(body, &ack) != nil {
		return
	}
	acks := append([]protocol.LeaseAck{ack}, ack.More...)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for k, i := range idx {
		if k >= len(acks) || !acks[k].Stale {
			continue
		}
		ch.stale[i] = true
		w.opts.Logf("worker %s: lease %s went stale; abandoning cell %d", w.opts.ID, ch.cells[i].ID, ch.cells[i].Cell)
		if ch.current == i {
			ch.cancel()
		}
		// The cell may have finished since the beat was sent.
		ch.pending = slices.DeleteFunc(ch.pending, func(r protocol.FoldResult) bool { return r.Lease == ch.cells[i].ID })
	}
}

// flush posts the chunk's finished results in one exchange, retrying
// transient transport errors briefly — an unreported success costs a
// whole recompute elsewhere. A stale ack is normal after reassignment
// and just logged.
func (w *worker) flush(ctx context.Context, ch *chunk) {
	ch.mu.Lock()
	pending := ch.pending
	ch.pending = nil
	ch.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	res := pending[0]
	res.More = pending[1:]
	for attempt := 0; attempt < 5; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		status, body, err := w.post(rctx, "/workers/result", res)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.opts.Logf("worker %s: posting %d result(s) from lease %s: %v", w.opts.ID, len(pending), res.Lease, err)
			w.sleep(ctx, time.Second)
			continue
		}
		var ack protocol.LeaseAck
		_ = json.Unmarshal(body, &ack)
		acks := append([]protocol.LeaseAck{ack}, ack.More...)
		for k, r := range pending {
			switch {
			case k >= len(acks):
				w.opts.Logf("worker %s: result of lease %s not acked: %s", w.opts.ID, r.Lease, httpError(status, body))
			case acks[k].Accepted:
			case acks[k].Stale:
				w.opts.Logf("worker %s: result of lease %s refused as stale (cell was reassigned)", w.opts.ID, r.Lease)
			default:
				msg := acks[k].Error
				if msg == "" {
					msg = httpError(status, body)
				}
				w.opts.Logf("worker %s: result of lease %s refused: %s", w.opts.ID, r.Lease, msg)
			}
		}
		return
	}
}

// post sends one JSON request and returns the status and body.
func (w *worker) post(ctx context.Context, path string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Server+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// sleep waits d or until ctx is done.
func (w *worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// httpError renders a non-2xx response for logs.
func httpError(status int, body []byte) string {
	msg := strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200] + "…"
	}
	if msg == "" {
		return fmt.Sprintf("HTTP %d", status)
	}
	return fmt.Sprintf("HTTP %d: %s", status, msg)
}
