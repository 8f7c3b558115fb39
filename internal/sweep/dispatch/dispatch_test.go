package dispatch

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tctp/internal/stats"
	"tctp/internal/sweep/protocol"
)

// fakeStore is an in-memory Store for scheduler tests.
type fakeStore struct {
	mu sync.Mutex
	m  map[string]protocol.FoldState
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]protocol.FoldState)} }

func (f *fakeStore) Probe(key string) (protocol.FoldState, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.m[key]
	return st, ok
}

func (f *fakeStore) Put(key string, st protocol.FoldState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = st
}

// stateFor builds a distinguishable fold state for cell i.
func stateFor(i int) protocol.FoldState {
	return protocol.FoldState{
		Next:    i + 1,
		Scalars: []stats.AccumulatorState{{N: i + 1, Mean: uint64(i)}},
	}
}

func acceptAll(*protocol.FoldState) error { return nil }

func testCell(i int) Cell {
	return Cell{
		Sweep:    "s1",
		Index:    i,
		Key:      fmt.Sprintf("k%03d", i),
		Validate: acceptAll,
	}
}

func newTestScheduler(t *testing.T, opts Options) (*Scheduler, *fakeStore) {
	t.Helper()
	fs := newFakeStore()
	if opts.Store == nil {
		opts.Store = fs
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, fs
}

// resolveAsync starts a Resolve and returns a channel with its outcome.
type resolved struct {
	st  protocol.FoldState
	src protocol.Source
	err error
}

func resolveAsync(ctx context.Context, s *Scheduler, c Cell) <-chan resolved {
	ch := make(chan resolved, 1)
	go func() {
		st, src, err := s.Resolve(ctx, c)
		ch <- resolved{st, src, err}
	}()
	return ch
}

// waitStats polls the scheduler until cond holds or the deadline hits.
func waitStats(t *testing.T, s *Scheduler, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s; stats %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustLease(t *testing.T, s *Scheduler, worker string) *protocol.CellLease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := s.Lease(ctx, worker)
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	if l == nil {
		t.Fatalf("Lease(%s): poll timed out with work expected", worker)
	}
	return l
}

func TestLeaseLifecycle(t *testing.T) {
	s, fs := newTestScheduler(t, Options{})
	cell := testCell(0)
	got := resolveAsync(context.Background(), s, cell)

	l := mustLease(t, s, "w1")
	if l.Key != cell.Key || l.Cell != cell.Index || l.Worker != "w1" || l.Sweep != "s1" {
		t.Fatalf("lease %+v does not match cell %+v", l, cell)
	}
	if l.TTLSeconds < 1 {
		t.Fatalf("lease TTL %d < 1s", l.TTLSeconds)
	}
	want := stateFor(0)
	ack := s.Complete(protocol.FoldResult{Lease: l.ID, Worker: "w1", Key: l.Key, State: &want})
	if !ack.Accepted || ack.Stale {
		t.Fatalf("valid result refused: %+v", ack)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("Resolve: %v", r.err)
	}
	if r.src != protocol.SourceWorker("w1") {
		t.Fatalf("source %q, want worker:w1", r.src)
	}
	if r.st.Next != want.Next {
		t.Fatalf("state %+v, want %+v", r.st, want)
	}
	if _, ok := fs.Probe(cell.Key); !ok {
		t.Fatalf("accepted result was not published to the store")
	}
	st := s.Stats()
	if st.Queued != 1 || st.Leased != 1 || st.RemoteComputed != 1 || st.ActiveLeases != 0 || st.QueueLen != 0 {
		t.Fatalf("stats %+v", st)
	}
	w := st.Workers["w1"]
	if w.Completed != 1 || w.Active != 0 {
		t.Fatalf("worker stats %+v", w)
	}
}

func TestWarmCellNeverQueued(t *testing.T) {
	s, fs := newTestScheduler(t, Options{})
	cell := testCell(3)
	fs.Put(cell.Key, stateFor(3))

	st, src, err := s.Resolve(context.Background(), cell)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if src != protocol.SourceHit {
		t.Fatalf("source %q, want hit", src)
	}
	if st.Next != 4 {
		t.Fatalf("state %+v", st)
	}
	stats := s.Stats()
	if stats.CacheSkips != 1 || stats.Queued != 0 || stats.Leased != 0 {
		t.Fatalf("warm cell touched the queue: %+v", stats)
	}
}

func TestConcurrentResolversShareOneLease(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	cell := testCell(1)
	a := resolveAsync(context.Background(), s, cell)
	waitStats(t, s, "first resolver queued", func(st Stats) bool { return st.Queued == 1 })
	b := resolveAsync(context.Background(), s, cell)
	waitStats(t, s, "second resolver joined", func(st Stats) bool { return st.Joined == 1 })

	l := mustLease(t, s, "w1")
	want := stateFor(1)
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &want}); !ack.Accepted {
		t.Fatalf("result refused: %+v", ack)
	}
	ra, rb := <-a, <-b
	for _, r := range []resolved{ra, rb} {
		if r.err != nil {
			t.Fatalf("Resolve: %v", r.err)
		}
		if r.st.Next != want.Next {
			t.Fatalf("state %+v, want %+v", r.st, want)
		}
	}
	if ra.src != protocol.SourceWorker("w1") || rb.src != protocol.SourceJoined {
		t.Fatalf("sources %q/%q, want worker:w1/joined", ra.src, rb.src)
	}
	if st := s.Stats(); st.Leased != 1 || st.RemoteComputed != 1 {
		t.Fatalf("shared cell leased %d times, computed %d", st.Leased, st.RemoteComputed)
	}
}

// stalledProbeStore is a fakeStore whose Probe, once armed, reads the
// map and then parks until release is closed: a probe that missed
// just before a concurrent Put lands.
type stalledProbeStore struct {
	*fakeStore
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *stalledProbeStore) Probe(key string) (protocol.FoldState, bool) {
	st, ok := s.fakeStore.Probe(key)
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return st, ok
}

// TestResolveRacingCompleteQueuesOnce replays the check-then-act race
// step by step: a resolver's store probe misses, the cell's lease then
// completes (Put, then the key is retired), and only then does the
// resolver reach the scheduler lock. It must find the now-warm store,
// not queue the cell for a second compute.
func TestResolveRacingCompleteQueuesOnce(t *testing.T) {
	store := &stalledProbeStore{
		fakeStore: newFakeStore(),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	s, _ := newTestScheduler(t, Options{Store: store})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cell := testCell(5)

	first := resolveAsync(ctx, s, cell)
	l := mustLease(t, s, "w1")

	store.armed.Store(true)
	late := resolveAsync(ctx, s, cell)
	<-store.entered // the late resolver's probe has missed

	want := stateFor(5)
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Worker: "w1", Key: l.Key, State: &want}); !ack.Accepted {
		t.Fatalf("result refused: %+v", ack)
	}
	if r := <-first; r.err != nil || r.st.Next != want.Next {
		t.Fatalf("first resolver: %+v", r)
	}
	close(store.release)

	st := waitStats(t, s, "late resolver settled", func(st Stats) bool {
		return st.Queued+st.CacheSkips >= 2
	})
	if st.Queued != 1 {
		t.Fatalf("cell queued %d times, want 1: %+v", st.Queued, st)
	}
	done, stop := context.WithCancel(context.Background())
	stop()
	if again, err := s.Lease(done, "w2"); err != nil || again != nil {
		t.Fatalf("second lease for a finished cell: %+v, %v", again, err)
	}
	r := <-late
	if r.err != nil || r.src != protocol.SourceHit || r.st.Next != want.Next {
		t.Fatalf("late resolver: %+v, want a cache hit on %+v", r, want)
	}
}

func TestExpiredLeaseReassignedStaleRefused(t *testing.T) {
	s, _ := newTestScheduler(t, Options{LeaseTTL: 40 * time.Millisecond})
	cell := testCell(2)
	got := resolveAsync(context.Background(), s, cell)

	dead := mustLease(t, s, "doomed") // takes the cell and never reports
	waitStats(t, s, "lease expiry", func(st Stats) bool { return st.Expired >= 1 })

	l2 := mustLease(t, s, "w2")
	if l2.ID == dead.ID {
		t.Fatalf("reassigned lease reused id %s", dead.ID)
	}
	if l2.Key != cell.Key {
		t.Fatalf("reassigned lease key %s, want %s", l2.Key, cell.Key)
	}
	want := stateFor(2)
	if ack := s.Complete(protocol.FoldResult{Lease: l2.ID, Key: l2.Key, State: &want}); !ack.Accepted {
		t.Fatalf("reassigned result refused: %+v", ack)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("Resolve: %v", r.err)
	}
	if r.src != protocol.SourceWorker("w2") {
		t.Fatalf("source %q, want worker:w2", r.src)
	}

	// The dead worker finally reports: refused as stale, state unchanged.
	wrong := stateFor(99)
	ack := s.Complete(protocol.FoldResult{Lease: dead.ID, Key: cell.Key, State: &wrong})
	if ack.Accepted || !ack.Stale {
		t.Fatalf("stale result not refused: %+v", ack)
	}
	st := s.Stats()
	if st.Reassigned < 1 || st.StaleResults != 1 || st.RemoteComputed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if w := st.Workers["doomed"]; w.Expired < 1 || w.Completed != 0 {
		t.Fatalf("doomed worker stats %+v", w)
	}
}

func TestDuplicatePostFoldsOnce(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	got := resolveAsync(context.Background(), s, testCell(4))
	l := mustLease(t, s, "w1")
	want := stateFor(4)
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &want}); !ack.Accepted {
		t.Fatalf("first post refused: %+v", ack)
	}
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &want}); ack.Accepted || !ack.Stale {
		t.Fatalf("duplicate post not refused as stale: %+v", ack)
	}
	if r := <-got; r.err != nil {
		t.Fatalf("Resolve: %v", r.err)
	}
	if st := s.Stats(); st.RemoteComputed != 1 || st.StaleResults != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidResultRequeuedThenFails(t *testing.T) {
	fs := newFakeStore()
	s, err := New(Options{Store: fs, MaxRefusals: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	cell := testCell(5)
	cell.Validate = func(st *protocol.FoldState) error {
		if st.Next != 6 {
			return fmt.Errorf("bad next %d", st.Next)
		}
		return nil
	}
	got := resolveAsync(context.Background(), s, cell)

	bad := stateFor(0)
	l1 := mustLease(t, s, "w1")
	if ack := s.Complete(protocol.FoldResult{Lease: l1.ID, Key: l1.Key, State: &bad}); ack.Accepted || ack.Error == "" {
		t.Fatalf("invalid result not refused: %+v", ack)
	}
	// Refusal requeues: the cell is leased again, and the second invalid
	// result trips MaxRefusals and fails the waiters.
	l2 := mustLease(t, s, "w1")
	if l2.Key != cell.Key {
		t.Fatalf("requeued lease key %s, want %s", l2.Key, cell.Key)
	}
	s.Complete(protocol.FoldResult{Lease: l2.ID, Key: l2.Key, State: &bad})
	r := <-got
	if r.err == nil || !strings.Contains(r.err.Error(), "invalid worker results") {
		t.Fatalf("Resolve error %v, want refusal-cap failure", r.err)
	}
	if _, ok := fs.Probe(cell.Key); ok {
		t.Fatalf("invalid state was published to the store")
	}
	if st := s.Stats(); st.RefusedResults != 2 || st.Reassigned != 1 || st.RemoteComputed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestKeyMismatchRefused(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	got := resolveAsync(context.Background(), s, testCell(6))
	l := mustLease(t, s, "w1")
	want := stateFor(6)
	ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: "k999", State: &want})
	if ack.Accepted || !strings.Contains(ack.Error, "does not match") {
		t.Fatalf("mismatched key not refused: %+v", ack)
	}
	// The cell is requeued; a correct post still lands.
	l2 := mustLease(t, s, "w1")
	if ack := s.Complete(protocol.FoldResult{Lease: l2.ID, Key: l2.Key, State: &want}); !ack.Accepted {
		t.Fatalf("correct retry refused: %+v", ack)
	}
	if r := <-got; r.err != nil {
		t.Fatalf("Resolve: %v", r.err)
	}
}

func TestWorkerErrorFailsWaiters(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	got := resolveAsync(context.Background(), s, testCell(7))
	l := mustLease(t, s, "w1")
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, Error: "engine exploded"}); !ack.Accepted {
		t.Fatalf("error report refused: %+v", ack)
	}
	r := <-got
	if r.err == nil || !strings.Contains(r.err.Error(), "engine exploded") {
		t.Fatalf("Resolve error %v, want worker failure", r.err)
	}
	if st := s.Stats(); st.WorkerErrors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	s, _ := newTestScheduler(t, Options{LeaseTTL: 60 * time.Millisecond})
	got := resolveAsync(context.Background(), s, testCell(8))
	l := mustLease(t, s, "w1")

	// Heartbeat for several TTLs; the lease must survive.
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		if ack := s.Heartbeat(protocol.LeaseHeartbeat{Lease: l.ID, Worker: "w1"}); !ack.Accepted {
			t.Fatalf("heartbeat %d refused: %+v", i, ack)
		}
	}
	if st := s.Stats(); st.Expired != 0 {
		t.Fatalf("heartbeated lease expired: %+v", st)
	}
	want := stateFor(8)
	if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &want}); !ack.Accepted {
		t.Fatalf("result refused after heartbeats: %+v", ack)
	}
	if r := <-got; r.err != nil {
		t.Fatalf("Resolve: %v", r.err)
	}
	if ack := s.Heartbeat(protocol.LeaseHeartbeat{Lease: "L-unknown"}); ack.Accepted || !ack.Stale {
		t.Fatalf("unknown-lease heartbeat not refused: %+v", ack)
	}
}

func TestLeasePollTimesOutEmpty(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	l, err := s.Lease(ctx, "w1")
	if err != nil || l != nil {
		t.Fatalf("empty poll: lease %v err %v, want nil/nil", l, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatalf("poll returned before its wait elapsed")
	}
}

// TestResolveCancelled: a Resolve returns when its context ends, and
// its cell, which no one else waits on, is withdrawn from the queue.
func TestResolveCancelled(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	got := resolveAsync(ctx, s, testCell(9))
	waitStats(t, s, "cell queued", func(st Stats) bool { return st.Queued == 1 })
	cancel()
	if r := <-got; r.err != context.Canceled {
		t.Fatalf("Resolve after cancel: %v", r.err)
	}
	// Nobody waits on the cell any more: it leaves the queue rather
	// than wait for a worker to compute it for nobody.
	if st := s.Stats(); st.QueueLen != 0 || st.Withdrawn != 1 {
		t.Fatalf("cancelled cell still queued: %+v", st)
	}
	lctx, lcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer lcancel()
	if l, err := s.Lease(lctx, "w1"); l != nil || err != nil {
		t.Fatalf("withdrawn cell leased: %+v, %v", l, err)
	}
}

// TestHammer drives the scheduler under -race: many cells, several
// well-behaved workers, one that takes leases and abandons them, and
// duplicate posts for every completed lease. Every resolver must get
// its cell's exact state; every cell folds exactly once.
func TestHammer(t *testing.T) {
	s, _ := newTestScheduler(t, Options{LeaseTTL: 50 * time.Millisecond})
	const cells = 64

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One abandoning worker: grabs leases and drops them so expiry and
	// reassignment fire throughout the run.
	var abandoned atomic.Int64
	go func() {
		for ctx.Err() == nil {
			lctx, lcancel := context.WithTimeout(ctx, 20*time.Millisecond)
			l, err := s.Lease(lctx, "flaky")
			lcancel()
			if err != nil {
				return
			}
			if l != nil {
				abandoned.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Three real workers: compute from the lease, post the results,
	// and post them again (every duplicate must be refused as stale).
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for ctx.Err() == nil {
				lctx, lcancel := context.WithTimeout(ctx, 20*time.Millisecond)
				l, err := s.Lease(lctx, id)
				lcancel()
				if err != nil || l == nil {
					continue
				}
				var res protocol.FoldResult
				for i, c := range append([]protocol.ChunkCell{{ID: l.ID, Cell: l.Cell, Key: l.Key}}, l.More...) {
					st := stateFor(c.Cell)
					r := protocol.FoldResult{Lease: c.ID, Worker: id, Key: c.Key, State: &st}
					if i == 0 {
						res = r
					} else {
						res.More = append(res.More, r)
					}
				}
				first := s.Complete(res)
				dup := s.Complete(res)
				firsts := append([]protocol.LeaseAck{first}, first.More...)
				for i, d := range append([]protocol.LeaseAck{dup}, dup.More...) {
					if d.Accepted {
						t.Errorf("duplicate post of a lease of chunk %s accepted", l.ID)
					} else if firsts[i].Accepted && !d.Stale {
						t.Errorf("duplicate post of a completed lease of chunk %s not stale: %+v", l.ID, d)
					}
				}
			}
		}(fmt.Sprintf("w%d", w))
	}

	// Two resolvers per cell: one enqueues, one joins (or probes warm).
	var rwg sync.WaitGroup
	errs := make(chan error, 2*cells)
	for i := 0; i < cells; i++ {
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func(i int) {
				defer rwg.Done()
				st, _, err := s.Resolve(ctx, testCell(i))
				if err != nil {
					errs <- fmt.Errorf("cell %d: %w", i, err)
					return
				}
				if st.Next != i+1 {
					errs <- fmt.Errorf("cell %d resolved to state %+v", i, st)
				}
			}(i)
		}
	}
	done := make(chan struct{})
	go func() { rwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("hammer deadlocked; stats %+v", s.Stats())
	}
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.RemoteComputed != cells {
		t.Errorf("RemoteComputed = %d, want %d (exactly one fold per cell)", st.RemoteComputed, cells)
	}
	if st.QueueLen != 0 || st.ActiveLeases != 0 {
		t.Errorf("work left behind: %+v", st)
	}
	if abandoned.Load() > 0 && st.Expired == 0 {
		t.Errorf("flaky worker abandoned %d leases but none expired: %+v", abandoned.Load(), st)
	}
	t.Logf("hammer: %+v (flaky abandoned %d)", st, abandoned.Load())
}

// TestJoinedCellWithdrawnWithItsLastWaiter: a queued cell two sweeps
// wait on stays queued while either waits, and leaves the queue with
// the last of them.
func TestJoinedCellWithdrawnWithItsLastWaiter(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	r1 := resolveAsync(ctx1, s, testCell(4))
	r2 := resolveAsync(ctx2, s, testCell(4))
	waitStats(t, s, "second resolver joined", func(st Stats) bool { return st.Joined == 1 })
	cancel1()
	<-r1
	if st := s.Stats(); st.QueueLen != 1 || st.Withdrawn != 0 {
		t.Fatalf("cell withdrawn while a resolver still waits: %+v", st)
	}
	cancel2()
	<-r2
	if st := s.Stats(); st.QueueLen != 0 || st.Withdrawn != 1 {
		t.Fatalf("cell kept with no resolver left: %+v", st)
	}
}

// queueCells resolves cells in the background, under sweep, and waits
// until all of them are queued.
func queueCells(t *testing.T, ctx context.Context, s *Scheduler, sweep string, idx ...int) {
	t.Helper()
	want := s.Stats().QueueLen + len(idx)
	for _, i := range idx {
		c := testCell(i)
		c.Sweep = sweep
		resolveAsync(ctx, s, c)
	}
	waitStats(t, s, "cells queued", func(st Stats) bool { return st.QueueLen == want })
}

// chunkCells lists a lease's cell indices, top-level cell first.
func chunkCells(l *protocol.CellLease) []int {
	cells := []int{l.Cell}
	for _, c := range l.More {
		cells = append(cells, c.Cell)
	}
	return cells
}

// TestLeaseChunkGuided: a lease is ceil(Q/2W) of its sweep's queued
// cells, in cell order whatever order they were queued in, where W
// counts the workers holding a lease or polling.
func TestLeaseChunkGuided(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queueCells(t, ctx, s, "s1", 11, 3, 7, 0, 9, 1, 5, 2, 10, 4, 8, 6)

	for _, step := range []struct {
		worker string
		want   []int
	}{
		{"w1", []int{0, 1, 2, 3, 4, 5}}, // Q 12, W 1 (w1 polling)
		{"w2", []int{6, 7}},             // Q 6, W 2 (w1 holds leases)
		{"w1", []int{8}},                // Q 4, W 2
		{"w3", []int{9}},                // Q 3, W 3
		{"w3", []int{10}},               // Q 2, W 3
		{"w2", []int{11}},               // Q 1
	} {
		if got := chunkCells(mustLease(t, s, step.worker)); !slices.Equal(got, step.want) {
			t.Fatalf("%s granted cells %v, want %v", step.worker, got, step.want)
		}
	}
	if st := s.Stats(); st.QueueLen != 0 || st.ActiveLeases != 12 || st.Workers["w1"].Active != 7 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLeaseChunkRoundRobin: sweeps take turns, one chunk each, so a
// small sweep queued behind a large one is served at the next grant;
// a chunk never mixes sweeps; and a cell requeued by expiry is granted
// first, in its sweep's next turn.
func TestLeaseChunkRoundRobin(t *testing.T) {
	s, _ := newTestScheduler(t, Options{LeaseTTL: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queueCells(t, ctx, s, "big", 0, 1, 2, 3, 4, 5, 6, 7)
	queueCells(t, ctx, s, "small", 20, 21)

	var got [][]int
	var sweeps []string
	var small []*protocol.CellLease
	for range 4 {
		l := mustLease(t, s, "w1")
		got, sweeps = append(got, chunkCells(l)), append(sweeps, l.Sweep)
		if l.Sweep == "small" {
			small = append(small, l)
		}
	}
	want := [][]int{{0, 1, 2, 3}, {20}, {4, 5}, {21}}
	if !slices.EqualFunc(got, want, slices.Equal) || !slices.Equal(sweeps, []string{"big", "small", "big", "small"}) {
		t.Fatalf("grants %v from %v, want %v alternating big and small", got, sweeps, want)
	}

	// The small sweep finishes; the big one's leases expire, and its
	// cells go back in cell order ahead of its unleased ones.
	for _, l := range small {
		st := stateFor(l.Cell)
		if ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &st}); !ack.Accepted {
			t.Fatalf("small sweep's result refused: %+v", ack)
		}
	}
	waitStats(t, s, "leases expired", func(st Stats) bool { return st.Expired == 6 })
	if l := mustLease(t, s, "w1"); !slices.Equal(chunkCells(l), []int{0, 1, 2, 3}) || l.Sweep != "big" {
		t.Fatalf("after expiry granted %v of %s, want big's cells 0-3", chunkCells(l), l.Sweep)
	}
}

// TestChunkedPostsAckEachEntry: a chunked heartbeat or result is acked
// entry by entry — a stale or unknown lease is refused without
// touching its neighbours, a lease repeated within one post folds once,
// and a result that nests a chunk of its own is refused.
func TestChunkedPostsAckEachEntry(t *testing.T) {
	s, _ := newTestScheduler(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queueCells(t, ctx, s, "s1", 0, 1, 2, 3)
	l := mustLease(t, s, "w1") // ceil(4/2) = cells 0 and 1
	if len(l.More) != 1 {
		t.Fatalf("chunk %v, want two cells", chunkCells(l))
	}
	next := l.More[0]

	hb := s.Heartbeat(protocol.LeaseHeartbeat{Lease: l.ID, More: []string{"L999", next.ID}})
	if !hb.Accepted || len(hb.More) != 2 || !hb.More[0].Stale || !hb.More[1].Accepted {
		t.Fatalf("chunked heartbeat ack %+v", hb)
	}

	st0, st1 := stateFor(0), stateFor(1)
	nested := protocol.FoldResult{Lease: next.ID, Key: next.Key, State: &st1,
		More: []protocol.FoldResult{{Lease: next.ID, Key: next.Key, State: &st1}}}
	ack := s.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &st0, More: []protocol.FoldResult{
		{Lease: l.ID, Key: l.Key, State: &st0}, // repeated: already folded
		nested,                                 // refused whole
		{Lease: "L999", Key: next.Key, State: &st1},
	}})
	if !ack.Accepted || len(ack.More) != 3 || !ack.More[0].Stale || ack.More[1].Accepted || ack.More[1].Stale || !ack.More[2].Stale {
		t.Fatalf("chunked result ack %+v", ack)
	}
	if st := s.Stats(); st.RemoteComputed != 1 || st.ActiveLeases != 1 || st.StaleResults != 2 {
		t.Fatalf("stats %+v", st)
	}
}
