package server_test

// The remote-plane contract, end to end over real HTTP: a sweep served
// by a fleet of tctp-worker loops is byte-identical to a local run at
// any worker count, survives a worker dying mid-sweep, never leases a
// warm cell, and releases its admission slot the moment it completes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
	"tctp/internal/sweep/worker"
)

// newRemoteServer builds a server whose cells are computed only by
// attached workers, with the given lease TTL.
func newRemoteServer(t *testing.T, ttl time.Duration, cfg server.Config) (*httptest.Server, *cache.Store, *dispatch.Scheduler) {
	t.Helper()
	store := cfg.Store
	if store == nil {
		var err error
		store, err = cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	sched, err := dispatch.New(dispatch.Options{Store: store, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	cfg.Dispatch = sched
	return newServer(t, cfg), store, sched
}

// startWorker runs a real worker loop against the test server until
// the test ends.
func startWorker(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = worker.Run(ctx, worker.Options{Server: ts.URL, ID: id, Poll: time.Second, Logf: t.Logf})
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// localReference runs the request in-process — the byte-identity bar
// every remote configuration must clear.
func localReference(t *testing.T, req protocol.SweepRequest) (csv, jsonl []byte) {
	t.Helper()
	spec, err := build.Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if _, err := sweep.Run(context.Background(), spec, sweep.CSV(&cb), sweep.JSONL(&jb)); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

func sweepStatus(t *testing.T, ts *httptest.Server, id string) protocol.SweepStatus {
	t.Helper()
	var st protocol.SweepStatus
	if err := json.Unmarshal(fetch(t, ts.URL+"/sweeps/"+id), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func serverStats(t *testing.T, ts *httptest.Server) server.Stats {
	t.Helper()
	var st server.Stats
	if err := json.Unmarshal(fetch(t, ts.URL+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postJSON sends one raw JSON POST — the fake-worker side of the wire.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRemoteWorkersByteIdentity: two workers serve a sweep over real
// HTTP; CSV and JSONL match the local run byte for byte, and every
// cell is attributed to the fleet.
func TestRemoteWorkersByteIdentity(t *testing.T) {
	ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{})
	startWorker(t, ts, "w1")
	startWorker(t, ts, "w2")

	req := testRequest()
	wantCSV, wantJSONL := localReference(t, req)

	sub := submit(t, ts, req)
	csv := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv")
	jsonl := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl")
	if !bytes.Equal(csv, wantCSV) {
		t.Fatalf("remote CSV differs from local run:\n%s\nvs\n%s", csv, wantCSV)
	}
	if !bytes.Equal(jsonl, wantJSONL) {
		t.Fatal("remote JSONL differs from local run")
	}

	st := sweepStatus(t, ts, sub.ID)
	if st.State != "done" || st.Remote != 4 || st.Computed != 0 || st.Hits != 0 {
		t.Fatalf("remote sweep status %+v, want 4 remote cells", st)
	}
	stats := serverStats(t, ts)
	if stats.Scheduler == nil {
		t.Fatal("/stats has no scheduler section on a remote server")
	}
	if stats.Scheduler.RemoteComputed != 4 || stats.Scheduler.Queued != 4 {
		t.Fatalf("scheduler stats %+v", stats.Scheduler)
	}
	if len(stats.Scheduler.Workers) == 0 {
		t.Fatalf("scheduler stats name no workers: %+v", stats.Scheduler)
	}
}

// TestWorkerKillMidSweep: a fake worker takes a lease and dies without
// reporting. The lease expires, the cell is reassigned to a live
// worker, the sweep completes byte-identical to the local run — and
// the dead worker's eventual late post is refused as stale without
// perturbing the result.
func TestWorkerKillMidSweep(t *testing.T) {
	ts, _, _ := newRemoteServer(t, time.Second, server.Config{})
	req := testRequest()
	wantCSV, _ := localReference(t, req)

	sub := submit(t, ts, req)

	// The doomed worker grabs the first lease and never reports. The
	// long poll also synchronizes the test with the sweep's enqueue.
	status, body := postJSON(t, ts.URL+"/workers/lease",
		protocol.LeaseRequest{Worker: "doomed", WaitSeconds: 10})
	if status != http.StatusOK {
		t.Fatalf("doomed lease: HTTP %d: %s", status, body)
	}
	var doomed protocol.CellLease
	if err := json.Unmarshal(body, &doomed); err != nil {
		t.Fatal(err)
	}

	// A live worker drains the queue, including the reassigned cell
	// once the doomed lease expires.
	startWorker(t, ts, "w1")

	csv := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv")
	if !bytes.Equal(csv, wantCSV) {
		t.Fatalf("CSV after worker loss differs from local run:\n%s\nvs\n%s", csv, wantCSV)
	}
	st := sweepStatus(t, ts, sub.ID)
	if st.State != "done" || st.Remote != 4 {
		t.Fatalf("status after worker loss %+v", st)
	}
	stats := serverStats(t, ts)
	if stats.Scheduler.Expired < 1 || stats.Scheduler.Reassigned < 1 {
		t.Fatalf("worker loss left no expiry/reassignment trace: %+v", stats.Scheduler)
	}

	// The doomed worker rises and posts its stale lease: refused, and
	// the published result is untouched.
	state := protocol.FoldState{Next: 1}
	status, body = postJSON(t, ts.URL+"/workers/result", protocol.FoldResult{
		Lease: doomed.ID, Worker: "doomed", Key: doomed.Key, State: &state,
	})
	var ack protocol.LeaseAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("stale post answered %d %q: %v", status, body, err)
	}
	if status != http.StatusConflict || !ack.Stale || ack.Accepted {
		t.Fatalf("stale post: HTTP %d, ack %+v; want 409 + stale", status, ack)
	}
	if got := serverStats(t, ts).Scheduler.StaleResults; got < 1 {
		t.Fatalf("stale post not counted: %d", got)
	}
	if again := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv"); !bytes.Equal(again, wantCSV) {
		t.Fatal("stale post changed the published result")
	}
}

// TestCacheAwareScheduling: re-submitting a superset grid over a warm
// cache leases only the missing cells — the warm ones are probe-served
// and never reach the queue.
func TestCacheAwareScheduling(t *testing.T) {
	ts, _, sched := newRemoteServer(t, 30*time.Second, server.Config{})
	startWorker(t, ts, "w1")

	subset := testRequest()
	subset.Targets = "6" // 2 of the 4 superset cells
	sub := submit(t, ts, subset)
	fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv")
	if st := sched.Stats(); st.Queued != 2 || st.RemoteComputed != 2 {
		t.Fatalf("subset scheduler stats %+v", st)
	}

	superset := testRequest() // targets 6,8 — 2 warm cells, 2 missing
	sub2 := submit(t, ts, superset)
	fetch(t, ts.URL+"/sweeps/"+sub2.ID+"/result.csv")

	st := sweepStatus(t, ts, sub2.ID)
	if st.Hits != 2 || st.Remote != 2 {
		t.Fatalf("superset status %+v, want 2 hits + 2 remote", st)
	}
	ss := sched.Stats()
	if ss.CacheSkips != 2 {
		t.Fatalf("warm cells not probe-served: %+v", ss)
	}
	// Zero leases for cached cells: every lease ever granted was for
	// one of the 4 distinct cold cells, none for the 2 warm ones.
	if ss.Queued != 4 || ss.Leased != 4 || ss.RemoteComputed != 4 {
		t.Fatalf("superset leased warm cells: %+v", ss)
	}
}

// TestCapacityReleasedOnCompletion is the admission regression test: a
// sweep must stop counting against -max-sweeps the moment it
// completes — observing state "done" guarantees the slot is free, even
// if the result is never fetched.
func TestCapacityReleasedOnCompletion(t *testing.T) {
	ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{MaxSweeps: 1})
	req := testRequest()

	// With no workers attached the first sweep is genuinely in flight,
	// so the second submission deterministically hits capacity.
	sub := submit(t, ts, req)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission while in flight: %s, want 429", resp.Status)
	}

	// Let a worker finish the sweep, then wait for "done" via status
	// polling only — the result is never fetched.
	startWorker(t, ts, "w1")
	deadline := time.Now().Add(30 * time.Second)
	for sweepStatus(t, ts, sub.ID).State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed; status %+v", sweepStatus(t, ts, sub.ID))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The slot must be free now: same sweep again (all warm, completes
	// without workers) — 202, not 429.
	sub2 := submit(t, ts, req)
	if st := sweepStatus(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("first sweep regressed: %+v", st)
	}
	fetch(t, ts.URL+"/sweeps/"+sub2.ID+"/result.csv")
}

// TestWorkerEndpointsLocalMode: a server computing locally has no
// scheduler; the worker endpoints refuse rather than hang.
func TestWorkerEndpointsLocalMode(t *testing.T) {
	ts := newServer(t, server.Config{})
	for path, v := range map[string]any{
		"/workers/lease":     protocol.LeaseRequest{Worker: "w1"},
		"/workers/result":    protocol.FoldResult{Lease: "L1"},
		"/workers/heartbeat": protocol.LeaseHeartbeat{Lease: "L1"},
	} {
		status, body := postJSON(t, ts.URL+path, v)
		if status != http.StatusConflict || !strings.Contains(string(body), "local") {
			t.Errorf("%s on local server: HTTP %d %q, want 409", path, status, body)
		}
	}
}

// TestLeaseRequestValidation: a lease request without a worker id is a
// client bug, answered 400.
func TestLeaseRequestValidation(t *testing.T) {
	ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{})
	status, body := postJSON(t, ts.URL+"/workers/lease", protocol.LeaseRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty worker id: HTTP %d %q, want 400", status, body)
	}
}

// waitQueued polls /stats until n cells are queued.
func waitQueued(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for serverStats(t, ts).Scheduler.QueueLen != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d cells: %+v", n, serverStats(t, ts).Scheduler)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerErrorFailsSweepEarly: a worker error on a sweep's first
// cell fails the sweep at once. The cells behind it, queued but not
// leased, are withdrawn instead of computed for nobody: no lease is
// granted afterwards and the queue ends empty.
func TestWorkerErrorFailsSweepEarly(t *testing.T) {
	ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{})
	req := testRequest()
	req.Targets = "6,7,8,9" // 8 cells
	sub := submit(t, ts, req)
	waitQueued(t, ts, 8)

	status, body := postJSON(t, ts.URL+"/workers/lease", protocol.LeaseRequest{Worker: "w1"})
	var l protocol.CellLease
	if status != http.StatusOK || json.Unmarshal(body, &l) != nil {
		t.Fatalf("lease: HTTP %d %s", status, body)
	}
	if l.Cell != 0 {
		t.Fatalf("first lease names cell %d, want 0", l.Cell)
	}
	postJSON(t, ts.URL+"/workers/result", protocol.FoldResult{Lease: l.ID, Worker: "w1", Key: l.Key, Error: "disk full"})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sweeps/"+sub.ID+"/result.csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("the sweep did not fail promptly: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "disk full") {
		t.Fatalf("failed sweep's result: HTTP %d %q", resp.StatusCode, msg)
	}
	st := serverStats(t, ts).Scheduler
	// The lease took ceil(8/2) = 4 cells; the 4 queued behind it are
	// withdrawn, and the chunk's other 3 leases stay held until they
	// expire.
	if st.QueueLen != 0 || st.Withdrawn != 4 || st.Leased != 4 || st.ActiveLeases != 3 {
		t.Fatalf("failed sweep left work behind: %+v", st)
	}
	if status, body := postJSON(t, ts.URL+"/workers/lease", protocol.LeaseRequest{Worker: "w2"}); status != http.StatusNoContent {
		t.Fatalf("lease after the sweep failed: HTTP %d %s", status, body)
	}
}

// computeChunk computes a chunk's cells in-process and posts them as
// one chunked result, checking each cell's key against the plan.
func computeChunk(t *testing.T, ts *httptest.Server, l protocol.CellLease) {
	t.Helper()
	spec, err := build.Spec(l.Request)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var res protocol.FoldResult
	for i, c := range append([]protocol.ChunkCell{{ID: l.ID, Cell: l.Cell, Key: l.Key}}, l.More...) {
		if key, err := job.CellKey(c.Cell); err != nil || key != c.Key {
			t.Fatalf("chunk cell %d of %s has key %s, plan says %s (%v)", c.Cell, l.Sweep, c.Key, key, err)
		}
		st, err := job.ComputeCell(context.Background(), c.Cell)
		if err != nil {
			t.Fatal(err)
		}
		r := protocol.FoldResult{Lease: c.ID, Worker: "hand", Key: c.Key, State: &st}
		if i == 0 {
			res = r
		} else {
			res.More = append(res.More, r)
		}
	}
	status, body := postJSON(t, ts.URL+"/workers/result", res)
	var ack protocol.LeaseAck
	if status != http.StatusOK || json.Unmarshal(body, &ack) != nil || len(ack.More) != len(l.More) {
		t.Fatalf("chunk result: HTTP %d %s", status, body)
	}
	for _, a := range append([]protocol.LeaseAck{ack}, ack.More...) {
		if !a.Accepted {
			t.Fatalf("chunk result refused: %+v", ack)
		}
	}
}

// TestConcurrentSweepsShareFleet: several distinct sweeps in flight at
// once are all served by the same two workers, each byte-identical to
// its local run — the fleet is a shared resource, not per-sweep. While
// they are all queued, consecutive chunks come from different sweeps,
// so each progresses rather than waiting behind another's whole queue.
func TestConcurrentSweepsShareFleet(t *testing.T) {
	ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{MaxSweeps: 3})

	reqs := []protocol.SweepRequest{testRequest(), testRequest(), testRequest()}
	reqs[1].Seeds = 3     // distinct protocol → distinct cells
	reqs[2].Targets = "7" // distinct grid

	// Submit everything first so the sweeps genuinely overlap, then
	// collect each result (the blocking fetch is the completion wait).
	ids := make([]string, len(reqs))
	wants := make([][]byte, len(reqs))
	cells := 0
	for i, req := range reqs {
		wants[i], _ = localReference(t, req)
		sub := submit(t, ts, req)
		ids[i] = sub.ID
		cells += sub.Cells
		waitQueued(t, ts, cells)
	}

	// Hand-compute two chunks while every sweep is queued: they come
	// from the first two sweeps in turn, and the first sweep still has
	// cells queued when the second sweep's chunk is granted.
	var sweeps []string
	for range 2 {
		status, body := postJSON(t, ts.URL+"/workers/lease", protocol.LeaseRequest{Worker: "hand"})
		var l protocol.CellLease
		if status != http.StatusOK || json.Unmarshal(body, &l) != nil {
			t.Fatalf("lease: HTTP %d %s", status, body)
		}
		sweeps = append(sweeps, l.Sweep)
		computeChunk(t, ts, l)
	}
	if sweeps[0] != ids[0] || sweeps[1] != ids[1] {
		t.Fatalf("first chunks came from sweeps %v, want %v then %v", sweeps, ids[0], ids[1])
	}
	for i, id := range ids[:2] {
		deadline := time.Now().Add(10 * time.Second)
		st := sweepStatus(t, ts, id)
		for ; st.CellsDone == 0 && time.Now().Before(deadline); st = sweepStatus(t, ts, id) {
			time.Sleep(time.Millisecond)
		}
		if st.CellsDone == 0 || st.CellsDone == st.Cells {
			t.Fatalf("sweep %d after one chunk each: %+v, want partly done", i, st)
		}
	}

	startWorker(t, ts, "w1")
	startWorker(t, ts, "w2")
	for i, id := range ids {
		if got := fetch(t, ts.URL+"/sweeps/"+id+"/result.csv"); !bytes.Equal(got, wants[i]) {
			t.Errorf("sweep %d differs from its local run", i)
		}
	}
}
