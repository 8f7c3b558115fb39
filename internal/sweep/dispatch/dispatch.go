// Package dispatch is the server side of the remote compute plane: a
// cache-aware cell scheduler that turns a sweep's missing cells into
// worker leases.
//
// The scheduler sits between sweep.Job.RunCached (as its Resolve hook)
// and a fleet of tctp-worker processes pulling leases over HTTP:
//
//   - Cache-aware admission. Every cell is probed against the shared
//     CellStore before anything else; a warm cell is served directly
//     and never enters the queue. Re-submitting a superset grid over a
//     warm cache therefore dispatches only the missing cells — zero
//     leases are issued for cached ones (Stats.CacheSkips counts them).
//
//   - Single-flight by key. Two sweeps (or two submissions) missing
//     the same cell share one queue entry: the first caller enqueues,
//     later callers join and wait for the same result. Exactly one
//     worker result is ever folded per cell.
//
//   - One queue per sweep, chunks by guided self-scheduling. A sweep's
//     cells queue in cell-index order. A lease grants ceil(Q/2W) cells
//     of one sweep in one exchange, where Q is that sweep's queued
//     cells and W the live workers — those holding a lease or polling
//     for one. Chunks shrink as the queue drains, so the tail stays
//     balanced with no tuning constant (Polychronopoulos & Kuck, IEEE
//     Trans. Computers 1987). Sweeps take turns, one chunk each, so a
//     small sweep never waits behind a large one's whole queue.
//
//   - Leases with deadlines. Every granted cell has its own lease: it
//     must report (or heartbeat) within the lease TTL; an expired
//     lease is revoked and the cell requeued ahead of its sweep's
//     queued cells, its sweep's turn next (Stats.Expired,
//     Stats.Reassigned). A result posted under a revoked or completed
//     lease is refused as stale (Stats.StaleResults) — a reassigned
//     cell that reports twice still folds once.
//
//   - Nothing computed for nobody. A cell whose every resolver has
//     gone (its sweeps failed or were cancelled) leaves the queue at
//     once, or, when leased, at its lease's expiry (Stats.Withdrawn).
//
//   - Validation before trust. Worker results are checked against the
//     requesting spec's shape (the Validate closure each cell carries)
//     before they are published to the cache or handed to waiters; a
//     refused result requeues the cell, and a cell refused repeatedly
//     fails the sweep with the validation error instead of looping.
//
// Because the unit shipped back is the cell's bit-exact fold state —
// the same record the checkpoint layer persists — a sweep computed by
// N remote workers is byte-identical to a single-machine run at any
// fleet size, including under mid-sweep worker loss.
package dispatch

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"tctp/internal/sweep/protocol"
)

// Store is what the scheduler needs from the shared cell cache: a
// probe that never computes and a publish for worker-computed states.
// *cache.Store implements it.
type Store interface {
	// Probe returns the state cached under key, if any, without
	// computing, joining, or registering a single-flight. Resolve may
	// call it with the scheduler's lock held, so it must not call back
	// into the Scheduler.
	Probe(key string) (protocol.FoldState, bool)
	// Put publishes a validated state under its key.
	Put(key string, st protocol.FoldState)
}

// Options configures a Scheduler.
type Options struct {
	// Store is the shared cell cache (required).
	Store Store
	// LeaseTTL is how long a worker may hold a cell without reporting
	// or heartbeating before the lease expires and the cell is
	// reassigned. Default 30s.
	LeaseTTL time.Duration
}

// maxRefusals bounds how many invalid worker results a single cell
// absorbs (each one requeues the cell) before the cell fails with the
// validation error.
const maxRefusals = 3

// Stats is a snapshot of the scheduler's counters, served under
// "scheduler" in the server's /stats document.
type Stats struct {
	// Queued counts cells ever enqueued for remote compute (cache
	// misses only); QueueLen is the current queue length.
	Queued   int64 `json:"queued"`
	QueueLen int   `json:"queue_len"`
	// Leased counts leases ever granted; ActiveLeases the outstanding
	// ones right now.
	Leased       int64 `json:"leased"`
	ActiveLeases int   `json:"active_leases"`
	// Expired counts leases revoked at their deadline; Reassigned
	// counts cells re-granted to a worker after an expiry or a refused
	// result.
	Expired    int64 `json:"expired"`
	Reassigned int64 `json:"reassigned"`
	// RemoteComputed counts worker results accepted and folded.
	RemoteComputed int64 `json:"remote_computed"`
	// CacheSkips counts cells served straight from the store's probe —
	// warm cells that never entered the queue.
	CacheSkips int64 `json:"cache_skips"`
	// Joined counts resolvers that attached to another sweep's
	// already-queued computation of the same cell.
	Joined int64 `json:"joined"`
	// Withdrawn counts cells dropped from the queue because no
	// resolver waited on them any more (their sweeps failed or were
	// cancelled).
	Withdrawn int64 `json:"withdrawn"`
	// StaleResults counts results refused because their lease was
	// expired, completed, or never existed; RefusedResults counts
	// results whose state failed validation; WorkerErrors counts
	// worker-reported compute failures.
	StaleResults   int64 `json:"stale_results"`
	RefusedResults int64 `json:"refused_results"`
	WorkerErrors   int64 `json:"worker_errors"`
	// Workers summarizes per-worker activity, keyed by worker id.
	Workers map[string]WorkerStats `json:"workers,omitempty"`
}

// WorkerStats is one worker's row in Stats.Workers.
type WorkerStats struct {
	// Active is the worker's outstanding leases; Polling its lease
	// requests waiting for work; Completed its accepted results;
	// Expired the leases it lost to the deadline.
	Active    int   `json:"active"`
	Polling   int   `json:"polling"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
}

// Cell is one cell submitted to the scheduler by a sweep's resolver.
type Cell struct {
	// Sweep is the submitting sweep's id (diagnostic, rides on the
	// lease).
	Sweep string
	// Index is the plan-global cell index within Request's plan; Key
	// the cell's content-addressed identity.
	Index int
	Key   string
	// Fingerprint is the plan fingerprint of Request.
	Fingerprint string
	// Request is the transport-neutral sweep request whose plan
	// contains the cell — what the worker rebuilds the spec from.
	Request protocol.SweepRequest
	// Validate checks a worker-returned state against the submitting
	// spec before it is trusted (required).
	Validate func(*protocol.FoldState) error
}

// task is the scheduler-side state of one distinct cell key.
type task struct {
	cell     Cell
	q        *sweepQueue   // the queue holding it while queued
	elem     *list.Element // non-nil while queued
	lease    *lease        // non-nil while checked out
	requeued bool          // true once reassignment made this a retry
	refusals int
	waiters  int // resolvers waiting on done

	done chan struct{} // closed when st/err are final
	st   protocol.FoldState
	err  error
}

// lease is one checked-out cell.
type lease struct {
	id       string
	worker   string
	task     *task
	deadline time.Time
}

// queueKey names a sweep's queue: its id and plan fingerprint, so the
// cells of one chunk always share one request.
type queueKey struct{ sweep, fingerprint string }

// sweepQueue is one sweep's queued tasks, in cell-index order. A queue
// exists only while it holds tasks, and then has a turn in the
// scheduler's round-robin.
type sweepQueue struct {
	key   queueKey
	tasks list.List // *task
}

// Scheduler is the cache-aware cell scheduler. Create with New, stop
// with Close.
type Scheduler struct {
	store Store
	ttl   time.Duration

	mu       sync.Mutex
	queues   map[queueKey]*sweepQueue
	turns    []*sweepQueue // the queues, in round-robin order: [0] leases next
	spare    *sweepQueue   // an emptied queue, kept for the next sweep
	queued   int           // tasks across all queues
	byKey    map[string]*task
	leases   map[string]*lease
	byWorker map[string]*WorkerStats
	nextID   int64
	wake     chan struct{} // closed and replaced when work arrives
	stats    Stats

	stop chan struct{}
	tick *time.Ticker
}

// New builds a Scheduler and starts its expiry loop.
func New(opts Options) (*Scheduler, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("dispatch: Options.Store is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	s := &Scheduler{
		store:    opts.Store,
		ttl:      opts.LeaseTTL,
		queues:   make(map[queueKey]*sweepQueue),
		byKey:    make(map[string]*task),
		leases:   make(map[string]*lease),
		byWorker: make(map[string]*WorkerStats),
		wake:     make(chan struct{}),
		stop:     make(chan struct{}),
	}
	// The expiry loop frees cells held by dead workers even while every
	// live worker is parked in a long poll.
	interval := s.ttl / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	s.tick = time.NewTicker(interval)
	go func() {
		for {
			select {
			case <-s.tick.C:
				s.mu.Lock()
				if s.expireLocked(time.Now()) {
					s.wakeLocked()
				}
				s.mu.Unlock()
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

// Close stops the expiry loop. Outstanding Resolve calls are not
// interrupted — cancel their contexts to release them.
func (s *Scheduler) Close() {
	s.tick.Stop()
	close(s.stop)
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueLen = s.queued
	st.ActiveLeases = len(s.leases)
	st.Workers = make(map[string]WorkerStats, len(s.byWorker))
	for id, w := range s.byWorker {
		st.Workers[id] = *w
	}
	return st
}

// Resolve obtains the cell's fold state: from the store if warm,
// otherwise by queueing it for the worker fleet and waiting for the
// accepted result. Concurrent Resolves of the same key share one queue
// entry. The returned Source is a cache hit, "worker:<id>" for the
// resolver that enqueued the cell, or joined for resolvers that
// attached to an existing entry. When ctx ends first, Resolve returns
// its error, and a cell still queued with no other resolver waiting on
// it is withdrawn, so no worker computes it for nobody.
func (s *Scheduler) Resolve(ctx context.Context, cell Cell) (protocol.FoldState, protocol.Source, error) {
	if cell.Validate == nil {
		return protocol.FoldState{}, "", fmt.Errorf("dispatch: cell %s has no Validate", cell.Key)
	}
	if st, ok := s.store.Probe(cell.Key); ok {
		s.mu.Lock()
		s.stats.CacheSkips++
		s.mu.Unlock()
		return st, protocol.SourceHit, nil
	}

	s.mu.Lock()
	t, joined := s.byKey[cell.Key]
	if joined {
		s.stats.Joined++
	} else if st, ok := s.store.Probe(cell.Key); ok {
		// The probe above raced a Complete: it missed before the Put,
		// and finishLocked retired the key before this lock was taken.
		// Complete publishes before it retires, so under the lock a
		// retired key is always warm — probe again rather than queue the
		// cell for a second compute.
		s.stats.CacheSkips++
		s.mu.Unlock()
		return st, protocol.SourceHit, nil
	} else {
		t = &task{cell: cell, done: make(chan struct{})}
		s.byKey[cell.Key] = t
		s.enqueueLocked(t)
		s.stats.Queued++
		s.wakeLocked()
	}
	t.waiters++
	s.mu.Unlock()

	select {
	case <-t.done:
	case <-ctx.Done():
		s.mu.Lock()
		if t.waiters--; t.waiters == 0 && t.elem != nil {
			s.dequeueLocked(t)
			s.retireLocked(t)
		}
		s.mu.Unlock()
		return protocol.FoldState{}, "", ctx.Err()
	}
	if t.err != nil {
		return protocol.FoldState{}, "", t.err
	}
	src := t.srcOf()
	if joined {
		src = protocol.SourceJoined
	}
	return t.st, src, nil
}

// srcOf names the source of a finished task's state. Finished tasks
// are immutable, so the unsynchronized read is safe.
func (t *task) srcOf() protocol.Source {
	if t.lease != nil {
		return protocol.SourceWorker(t.lease.worker)
	}
	return protocol.SourceComputed
}

// enqueueLocked queues a task in its sweep's queue, in cell-index
// order, creating the queue with a turn at the back of the round-robin.
// A retry (requeued) moves its sweep's turn to the front instead: a
// retried cell is usually the lowest its sweep lacks, so the sweep's
// output waits on it. Cells mostly arrive in index order, so the walk
// from the tail is short. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(t *task) {
	key := queueKey{t.cell.Sweep, t.cell.Fingerprint}
	q := s.queues[key]
	if q == nil {
		if q = s.spare; q == nil {
			q = new(sweepQueue)
		}
		s.spare = nil
		q.key = key
		s.queues[key] = q
		s.turns = append(s.turns, q)
	}
	if t.requeued {
		i := slices.Index(s.turns, q)
		copy(s.turns[1:i+1], s.turns[:i])
		s.turns[0] = q
	}
	at := q.tasks.Back()
	for at != nil && at.Value.(*task).cell.Index > t.cell.Index {
		at = at.Prev()
	}
	if at == nil {
		t.elem = q.tasks.PushFront(t)
	} else {
		t.elem = q.tasks.InsertAfter(t, at)
	}
	t.q = q
	s.queued++
}

// requeueLocked queues a task whose lease ended without a result
// again, or retires it when no resolver waits on it any more. Caller
// holds s.mu.
func (s *Scheduler) requeueLocked(t *task) {
	t.lease = nil
	if t.waiters == 0 {
		s.retireLocked(t)
		return
	}
	t.requeued = true
	s.enqueueLocked(t)
}

// dequeueLocked takes a queued task out of its sweep's queue, dropping
// the queue once empty (it becomes the spare). Caller holds s.mu.
func (s *Scheduler) dequeueLocked(t *task) {
	q := t.q
	q.tasks.Remove(t.elem)
	t.elem, t.q = nil, nil
	s.queued--
	if q.tasks.Len() == 0 {
		i := slices.Index(s.turns, q)
		s.turns = slices.Delete(s.turns, i, i+1)
		delete(s.queues, q.key)
		s.spare = q
	}
}

// retireLocked forgets a task nobody waits on: a later Resolve of its
// key starts afresh. Caller holds s.mu.
func (s *Scheduler) retireLocked(t *task) {
	delete(s.byKey, t.cell.Key)
	s.stats.Withdrawn++
}

// Lease grants worker a chunk of queued cells, blocking until work
// arrives or ctx is done (long poll): up to ceil(Q/2W) cells of one
// sweep, where Q is that sweep's queued cells and W the live workers —
// those holding a lease or polling, worker included. This is guided
// self-scheduling: each grant takes a share of what remains, so chunks
// shrink as a sweep drains and its tail stays balanced across the
// fleet. Sweeps take turns, one chunk each, so a small sweep never
// waits behind a large one's whole queue. A nil lease with a nil error
// means the poll timed out empty.
func (s *Scheduler) Lease(ctx context.Context, worker string) (*protocol.CellLease, error) {
	if worker == "" {
		return nil, fmt.Errorf("dispatch: empty worker id")
	}
	s.mu.Lock()
	w := s.workerLocked(worker)
	w.Polling++
	for {
		s.expireLocked(time.Now())
		if len(s.turns) > 0 {
			q, live := s.turns[0], 2*s.liveLocked()
			wire := s.grantLocked(q, worker, (q.tasks.Len()+live-1)/live)
			w.Polling--
			s.mu.Unlock()
			return wire, nil
		}
		wake := s.wake
		s.mu.Unlock()
		var err error
		select {
		case <-wake:
			s.mu.Lock()
			continue
		case <-ctx.Done():
		case <-s.stop:
			err = fmt.Errorf("dispatch: scheduler closed")
		}
		s.mu.Lock()
		w.Polling--
		s.mu.Unlock()
		return nil, err
	}
}

// liveLocked counts the workers holding a lease or polling for one.
// Caller holds s.mu.
func (s *Scheduler) liveLocked() int {
	n := 0
	for _, w := range s.byWorker {
		if w.Active > 0 || w.Polling > 0 {
			n++
		}
	}
	return n
}

// grantLocked checks the first n tasks of q, whose turn it is, out to
// worker, one lease each, and moves q's turn to the back of the
// round-robin. Caller holds s.mu.
func (s *Scheduler) grantLocked(q *sweepQueue, worker string, n int) *protocol.CellLease {
	ttl := int(s.ttl / time.Second)
	if ttl < 1 {
		ttl = 1
	}
	var wire *protocol.CellLease
	for range n {
		t := q.tasks.Front().Value.(*task)
		s.dequeueLocked(t)
		s.nextID++
		l := &lease{
			id:       fmt.Sprintf("L%d", s.nextID),
			worker:   worker,
			task:     t,
			deadline: time.Now().Add(s.ttl),
		}
		t.lease = l
		s.leases[l.id] = l
		s.stats.Leased++
		if t.requeued {
			s.stats.Reassigned++
		}
		s.workerLocked(worker).Active++
		if wire == nil {
			wire = &protocol.CellLease{
				ID:          l.id,
				Worker:      worker,
				Sweep:       t.cell.Sweep,
				Cell:        t.cell.Index,
				Key:         t.cell.Key,
				Fingerprint: t.cell.Fingerprint,
				TTLSeconds:  ttl,
				Request:     t.cell.Request,
			}
			continue
		}
		wire.More = append(wire.More, protocol.ChunkCell{ID: l.id, Cell: t.cell.Index, Key: t.cell.Key})
	}
	if q.tasks.Len() > 0 {
		copy(s.turns, s.turns[1:])
		s.turns[len(s.turns)-1] = q
	}
	return wire
}

// workerLocked returns worker's stats row, creating it. Caller holds
// s.mu.
func (s *Scheduler) workerLocked(id string) *WorkerStats {
	w := s.byWorker[id]
	if w == nil {
		w = &WorkerStats{}
		s.byWorker[id] = w
	}
	return w
}

// expireLocked revokes leases past their deadline and requeues their
// cells at the front. Returns true if anything was requeued. Caller
// holds s.mu.
func (s *Scheduler) expireLocked(now time.Time) bool {
	requeued := false
	for id, l := range s.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(s.leases, id)
		s.stats.Expired++
		w := s.workerLocked(l.worker)
		w.Active--
		w.Expired++
		s.requeueLocked(l.task)
		requeued = true
	}
	return requeued
}

// wakeLocked wakes every long-polling Lease. Caller holds s.mu.
func (s *Scheduler) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Heartbeat extends live leases' deadlines to a fresh TTL: hb.Lease
// and every lease in hb.More, each acked on its own.
func (s *Scheduler) Heartbeat(hb protocol.LeaseHeartbeat) protocol.LeaseAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	ack := s.heartbeatLocked(hb.Lease)
	for _, id := range hb.More {
		ack.More = append(ack.More, s.heartbeatLocked(id))
	}
	return ack
}

func (s *Scheduler) heartbeatLocked(id string) protocol.LeaseAck {
	l, ok := s.leases[id]
	if !ok {
		return protocol.LeaseAck{Stale: true, Error: fmt.Sprintf("unknown or expired lease %q", id)}
	}
	l.deadline = time.Now().Add(s.ttl)
	return protocol.LeaseAck{Accepted: true}
}

// Complete accepts a worker's results: res, and each result in
// res.More, acked in the returned ack's More. The first valid result
// per cell wins: it is validated, published to the store, and handed
// to every waiting resolver. Results under an expired, completed, or
// unknown lease are refused as stale; results that fail validation
// requeue the cell (up to maxRefusals, then the cell fails);
// worker-reported errors fail the cell's waiters.
func (s *Scheduler) Complete(res protocol.FoldResult) protocol.LeaseAck {
	ack := s.complete(res)
	for _, r := range res.More {
		if len(r.More) > 0 {
			ack.More = append(ack.More, protocol.LeaseAck{Error: fmt.Sprintf("result of lease %q nests a chunk", r.Lease)})
			continue
		}
		ack.More = append(ack.More, s.complete(r))
	}
	return ack
}

// complete settles one result under its lease.
func (s *Scheduler) complete(res protocol.FoldResult) protocol.LeaseAck {
	s.mu.Lock()
	l, ok := s.leases[res.Lease]
	if !ok {
		s.stats.StaleResults++
		s.mu.Unlock()
		return protocol.LeaseAck{Stale: true, Error: fmt.Sprintf("unknown or expired lease %q", res.Lease)}
	}
	delete(s.leases, res.Lease)
	s.workerLocked(l.worker).Active--
	t := l.task

	if res.Error != "" {
		s.stats.WorkerErrors++
		s.finishLocked(t, protocol.FoldState{},
			fmt.Errorf("dispatch: worker %s failed cell %s: %s", l.worker, t.cell.Key, res.Error))
		s.mu.Unlock()
		return protocol.LeaseAck{Accepted: true}
	}

	var verr error
	switch {
	case res.State == nil:
		verr = fmt.Errorf("result carries no state")
	case res.Key != t.cell.Key:
		verr = fmt.Errorf("result key %s does not match leased cell %s", res.Key, t.cell.Key)
	default:
		verr = t.cell.Validate(res.State)
	}
	if verr != nil {
		s.stats.RefusedResults++
		t.refusals++
		if t.refusals >= maxRefusals {
			t.lease = nil
			s.finishLocked(t, protocol.FoldState{},
				fmt.Errorf("dispatch: cell %s: %d invalid worker results, last from %s: %v",
					t.cell.Key, t.refusals, l.worker, verr))
		} else {
			s.requeueLocked(t)
			s.wakeLocked()
		}
		s.mu.Unlock()
		return protocol.LeaseAck{Error: fmt.Sprintf("invalid result for cell %s: %v", t.cell.Key, verr)}
	}

	// Accepted. Leave t.lease set so srcOf attributes the state to this
	// worker, and publish before finishing so a resolver racing in
	// behind the completion probes a warm store.
	s.stats.RemoteComputed++
	s.workerLocked(l.worker).Completed++
	st := *res.State
	s.mu.Unlock()

	s.store.Put(t.cell.Key, st)

	s.mu.Lock()
	s.finishLocked(t, st, nil)
	s.mu.Unlock()
	return protocol.LeaseAck{Accepted: true}
}

// finishLocked resolves a task for all its waiters and retires its
// key. Caller holds s.mu.
func (s *Scheduler) finishLocked(t *task, st protocol.FoldState, err error) {
	if t.elem != nil {
		s.dequeueLocked(t)
	}
	t.st, t.err = st, err
	delete(s.byKey, t.cell.Key)
	close(t.done)
}
