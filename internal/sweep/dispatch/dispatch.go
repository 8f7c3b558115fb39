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
//   - Leases with deadlines. A granted cell must report (or heartbeat)
//     within the lease TTL; an expired lease is revoked and the cell
//     requeued at the front for the next worker (Stats.Expired,
//     Stats.Reassigned). A result posted under a revoked or completed
//     lease is refused as stale (Stats.StaleResults) — a reassigned
//     cell that reports twice still folds once.
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
	// MaxRefusals bounds how many invalid worker results a single cell
	// absorbs (each one requeues the cell) before the cell fails with
	// the validation error. Default 3.
	MaxRefusals int
}

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
	// Active is the worker's outstanding leases; Completed its
	// accepted results; Expired the leases it lost to the deadline.
	Active    int   `json:"active"`
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
	elem     *list.Element // non-nil while queued
	lease    *lease        // non-nil while checked out
	requeued bool          // true once reassignment made this a retry
	refusals int

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

// Scheduler is the cache-aware cell scheduler. Create with New, stop
// with Close.
type Scheduler struct {
	store       Store
	ttl         time.Duration
	maxRefusals int

	mu       sync.Mutex
	queue    *list.List // *task, front = next to lease
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
	if opts.MaxRefusals <= 0 {
		opts.MaxRefusals = 3
	}
	s := &Scheduler{
		store:       opts.Store,
		ttl:         opts.LeaseTTL,
		maxRefusals: opts.MaxRefusals,
		queue:       list.New(),
		byKey:       make(map[string]*task),
		leases:      make(map[string]*lease),
		byWorker:    make(map[string]*WorkerStats),
		wake:        make(chan struct{}),
		stop:        make(chan struct{}),
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
	st.QueueLen = s.queue.Len()
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
// attached to an existing entry.
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
		t.elem = s.queue.PushBack(t)
		s.byKey[cell.Key] = t
		s.stats.Queued++
		s.wakeLocked()
	}
	s.mu.Unlock()

	select {
	case <-t.done:
	case <-ctx.Done():
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

// Lease grants the next queued cell to worker, blocking until work
// arrives or ctx is done (long poll). A nil lease with a nil error
// means the poll timed out empty.
func (s *Scheduler) Lease(ctx context.Context, worker string) (*protocol.CellLease, error) {
	if worker == "" {
		return nil, fmt.Errorf("dispatch: empty worker id")
	}
	for {
		s.mu.Lock()
		s.expireLocked(time.Now())
		if front := s.queue.Front(); front != nil {
			t := front.Value.(*task)
			s.queue.Remove(front)
			t.elem = nil
			l := s.grantLocked(t, worker)
			wire := s.leaseWireLocked(l)
			s.mu.Unlock()
			return wire, nil
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, nil
		case <-s.stop:
			return nil, fmt.Errorf("dispatch: scheduler closed")
		}
	}
}

// grantLocked checks t out to worker. Caller holds s.mu.
func (s *Scheduler) grantLocked(t *task, worker string) *lease {
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
	return l
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

// leaseWireLocked renders a lease for the wire. Caller holds s.mu.
func (s *Scheduler) leaseWireLocked(l *lease) *protocol.CellLease {
	ttl := int(s.ttl / time.Second)
	if ttl < 1 {
		ttl = 1
	}
	return &protocol.CellLease{
		ID:          l.id,
		Worker:      l.worker,
		Sweep:       l.task.cell.Sweep,
		Cell:        l.task.cell.Index,
		Key:         l.task.cell.Key,
		Fingerprint: l.task.cell.Fingerprint,
		TTLSeconds:  ttl,
		Request:     l.task.cell.Request,
	}
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
		t := l.task
		t.lease = nil
		t.requeued = true
		t.elem = s.queue.PushFront(t)
		requeued = true
	}
	return requeued
}

// wakeLocked wakes every long-polling Lease. Caller holds s.mu.
func (s *Scheduler) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Heartbeat extends a live lease's deadline to a fresh TTL.
func (s *Scheduler) Heartbeat(hb protocol.LeaseHeartbeat) protocol.LeaseAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[hb.Lease]
	if !ok {
		return protocol.LeaseAck{Stale: true, Error: fmt.Sprintf("unknown or expired lease %q", hb.Lease)}
	}
	l.deadline = time.Now().Add(s.ttl)
	return protocol.LeaseAck{Accepted: true}
}

// Complete accepts a worker's result for a leased cell. The first
// valid result per cell wins: it is validated, published to the
// store, and handed to every waiting resolver. Results under an
// expired, completed, or unknown lease are refused as stale; results
// that fail validation requeue the cell (up to MaxRefusals, then the
// cell fails); worker-reported errors fail the cell's waiters.
func (s *Scheduler) Complete(res protocol.FoldResult) protocol.LeaseAck {
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
		t.lease = nil
		if t.refusals >= s.maxRefusals {
			s.finishLocked(t, protocol.FoldState{},
				fmt.Errorf("dispatch: cell %s: %d invalid worker results, last from %s: %v",
					t.cell.Key, t.refusals, l.worker, verr))
		} else {
			t.requeued = true
			t.elem = s.queue.PushFront(t)
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
		s.queue.Remove(t.elem)
		t.elem = nil
	}
	t.st, t.err = st, err
	delete(s.byKey, t.cell.Key)
	close(t.done)
}
