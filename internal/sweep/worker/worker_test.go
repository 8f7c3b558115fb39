package worker

// The worker loop against a real server and scheduler over HTTP:
// chunks outlive the lease TTL on heartbeats, finished results reach
// the server within a heartbeat interval, a stale lease skips only its
// cell, a worker killed mid-chunk loses nothing but time, and a lease
// request that still sends the retired chunk field gets the same grant.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
)

// request is a small sweep of cells cells (two algorithms, cells/2
// target counts, cells ≤ 10).
func request(cells int) protocol.SweepRequest {
	return protocol.SweepRequest{
		Algorithms: "btctp,chb",
		Targets:    strings.Join([]string{"6", "7", "8", "9", "10"}[:cells/2], ","),
		Mules:      "2",
		Seeds:      2,
		Horizon:    4_000,
	}
}

// fleet is a remote-mode server under test and what the test watches
// of it.
type fleet struct {
	t     *testing.T
	ts    *httptest.Server
	sched *dispatch.Scheduler

	mu      sync.Mutex
	posted  map[string]time.Time // lease → arrival of a worker's result under it
	leases  []protocol.CellLease // granted leases, in order
	staleHB chan struct{}        // closed at the first stale heartbeat ack
}

// newFleet starts a remote-mode server with the given lease TTL behind
// a handler that records lease grants, result arrivals and stale
// heartbeat acks.
func newFleet(t *testing.T, ttl time.Duration) *fleet {
	t.Helper()
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dispatch.New(dispatch.Options{Store: store, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	srv, err := server.New(server.Config{Store: store, Dispatch: sched})
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{t: t, sched: sched, posted: make(map[string]time.Time), staleHB: make(chan struct{})}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		f.observe(r.URL.Path, body, rec)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fleet) observe(path string, req []byte, rec *httptest.ResponseRecorder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch path {
	case "/workers/lease":
		var l protocol.CellLease
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &l) == nil {
			f.leases = append(f.leases, l)
		}
	case "/workers/result":
		var res protocol.FoldResult
		if json.Unmarshal(req, &res) == nil {
			for _, r := range append([]protocol.FoldResult{res}, res.More...) {
				if r.Worker != "" {
					f.posted[r.Lease] = time.Now()
				}
			}
		}
	case "/workers/heartbeat":
		var ack protocol.LeaseAck
		if json.Unmarshal(rec.Body.Bytes(), &ack) == nil {
			for _, a := range append([]protocol.LeaseAck{ack}, ack.More...) {
				if a.Stale {
					select {
					case <-f.staleHB:
					default:
						close(f.staleHB)
					}
				}
			}
		}
	}
}

// start runs a worker loop whose cells compute through compute until
// the returned kill is called (or the test ends).
func (f *fleet) start(id string, compute func(*sweep.Job, context.Context, int) (protocol.FoldState, error)) (kill func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = run(ctx, Options{Server: f.ts.URL, ID: id, Poll: time.Second, Logf: f.t.Logf}, compute)
	}()
	var once sync.Once
	kill = func() { once.Do(func() { cancel(); <-done }) }
	f.t.Cleanup(kill)
	return kill
}

func (f *fleet) post(path string, v any) (int, []byte) {
	f.t.Helper()
	b, _ := json.Marshal(v)
	resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// submit submits req and waits until all its cells are queued.
func (f *fleet) submit(req protocol.SweepRequest, cells int) string {
	f.t.Helper()
	status, body := f.post("/sweeps", req)
	var sub protocol.SubmitResponse
	if status != http.StatusAccepted || json.Unmarshal(body, &sub) != nil {
		f.t.Fatalf("submit: HTTP %d %s", status, body)
	}
	if sub.Cells != cells {
		f.t.Fatalf("sweep has %d cells, want %d", sub.Cells, cells)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.sched.Stats().QueueLen < cells {
		if time.Now().After(deadline) {
			f.t.Fatalf("cells never queued: %+v", f.sched.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return sub.ID
}

// result fetches a sweep's CSV and checks it against a local run.
func (f *fleet) result(id string, req protocol.SweepRequest) {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/sweeps/" + id + "/result.csv")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("result: HTTP %d %s", resp.StatusCode, got)
	}
	spec, err := build.Spec(req)
	if err != nil {
		f.t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sweep.Run(context.Background(), spec, sweep.CSV(&want)); err != nil {
		f.t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		f.t.Fatalf("remote CSV differs from the local run:\n%s\nvs\n%s", got, want.Bytes())
	}
}

// slowly is a compute that takes at least d per cell.
func slowly(d time.Duration) func(*sweep.Job, context.Context, int) (protocol.FoldState, error) {
	return func(j *sweep.Job, ctx context.Context, i int) (protocol.FoldState, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return protocol.FoldState{}, ctx.Err()
		}
		return j.ComputeCell(ctx, i)
	}
}

// TestLeaseGrantIgnoresChunkField: every lease request is granted a
// chunk of ceil(Q/2W) cells. A body that still sends the retired
// "chunk" field decodes unchanged, since unknown fields are ignored, so
// the same queue grants the same cells with the field and without it.
func TestLeaseGrantIgnoresChunkField(t *testing.T) {
	for _, body := range []string{`{"worker":"w1"}`, `{"worker":"w1","chunk":true}`} {
		f := newFleet(t, 30*time.Second)
		id := f.submit(request(8), 8)

		status, resp := f.post("/workers/lease", json.RawMessage(body))
		var l protocol.CellLease
		if status != http.StatusOK || json.Unmarshal(resp, &l) != nil {
			t.Fatalf("lease %s: HTTP %d %s", body, status, resp)
		}
		// 8 cells queued, 1 live worker: ceil(8/2) = 4 cells.
		got := []int{l.Cell}
		for _, c := range l.More {
			got = append(got, c.Cell)
		}
		if !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("lease %s granted cells %v, want 0-3", body, got)
		}

		// Fail the sweep so nothing is left waiting: its queued cells
		// are withdrawn.
		f.post("/workers/result", protocol.FoldResult{Lease: l.ID, Key: l.Key, Error: "test over"})
		deadline := time.Now().Add(10 * time.Second)
		for st := f.sched.Stats(); st.QueueLen != 0 || st.Withdrawn != 4; st = f.sched.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("failed sweep %s left cells queued: %+v", id, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestChunkOutlivesShortTTL: one worker computes chunks whose cells
// take longer in total than the lease TTL. Heartbeats keep every held
// lease alive, the unstarted cells' included, so nothing expires; each
// finished result reaches the server within one heartbeat interval
// (TTL/3) of its compute; and the output matches a local run.
func TestChunkOutlivesShortTTL(t *testing.T) {
	const cells, per = 8, 400 * time.Millisecond
	f := newFleet(t, time.Second)
	req := request(cells)
	id := f.submit(req, cells)

	var mu sync.Mutex
	finished := map[int]time.Time{}
	compute := slowly(per)
	f.start("w1", func(j *sweep.Job, ctx context.Context, i int) (protocol.FoldState, error) {
		st, err := compute(j, ctx, i)
		mu.Lock()
		finished[i] = time.Now()
		mu.Unlock()
		return st, err
	})
	f.result(id, req)

	if st := f.sched.Stats(); st.Expired != 0 || st.RemoteComputed != cells {
		t.Fatalf("scheduler stats %+v, want %d cells computed and none expired", st, cells)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// The first chunk's last cell starts past the TTL: only heartbeats
	// sent before it started kept its lease alive.
	if n := len(f.leases[0].More) + 1; n != cells/2 || time.Duration(n-1)*per <= time.Second {
		t.Fatalf("first chunk has %d cells, want %d, the last starting past the TTL", n, cells/2)
	}
	const interval, slack = time.Second / 3, 150 * time.Millisecond
	for _, l := range f.leases {
		for _, c := range append([]protocol.ChunkCell{{ID: l.ID, Cell: l.Cell}}, l.More...) {
			done, arrived := finished[c.Cell], f.posted[c.ID]
			if arrived.IsZero() {
				t.Fatalf("cell %d (lease %s) never posted", c.Cell, c.ID)
			}
			if lag := arrived.Sub(done); lag > interval+slack {
				t.Errorf("cell %d posted %v after its compute, past one heartbeat interval", c.Cell, lag)
			}
		}
	}
}

// TestStaleLeaseMidChunk: while a worker computes the first cell of a
// chunk, another party completes the chunk's third cell, so that
// cell's lease is stale at the worker's next heartbeat. The worker
// skips that cell, posts every other, and never posts under the stale
// lease.
func TestStaleLeaseMidChunk(t *testing.T) {
	const cells = 8
	f := newFleet(t, time.Second)
	req := request(cells)
	id := f.submit(req, cells)
	spec, err := build.Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}

	first := make(chan struct{})
	var once sync.Once
	f.start("w1", func(j *sweep.Job, ctx context.Context, i int) (protocol.FoldState, error) {
		once.Do(func() {
			close(first)
			select {
			case <-f.staleHB:
			case <-time.After(10 * time.Second):
			}
		})
		return j.ComputeCell(ctx, i)
	})
	<-first
	f.mu.Lock()
	chunk := f.leases[0]
	f.mu.Unlock()
	if len(chunk.More) != cells/2-1 {
		t.Fatalf("first chunk %+v, want %d cells", chunk, cells/2)
	}
	target := chunk.More[1]
	st, err := job.ComputeCell(context.Background(), target.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := f.post("/workers/result", protocol.FoldResult{Lease: target.ID, Key: target.Key, State: &st}); status != http.StatusOK {
		t.Fatalf("completing lease %s: HTTP %d %s", target.ID, status, body)
	}
	select {
	case <-f.staleHB:
	case <-time.After(10 * time.Second):
		t.Fatal("no heartbeat came back stale")
	}
	f.result(id, req)

	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range append([]protocol.ChunkCell{{ID: chunk.ID}}, chunk.More...) {
		if _, ok := f.posted[c.ID]; ok != (c.ID != target.ID) {
			t.Errorf("lease %s posted = %v", c.ID, ok)
		}
	}
	if st := f.sched.Stats(); st.StaleResults != 0 || st.Expired != 0 || st.RemoteComputed != cells {
		t.Fatalf("scheduler stats %+v", st)
	}
}

// TestWorkerKilledMidChunk: a worker dies while computing the second
// cell of its chunk. Its leases expire, a second worker recomputes the
// cells, and the output still matches a local run byte for byte.
func TestWorkerKilledMidChunk(t *testing.T) {
	const cells = 8
	f := newFleet(t, time.Second)
	req := request(cells)
	id := f.submit(req, cells)

	second := make(chan struct{})
	var n int
	var mu sync.Mutex
	kill := f.start("doomed", func(j *sweep.Job, ctx context.Context, i int) (protocol.FoldState, error) {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		if k == 2 {
			close(second)
			<-ctx.Done()
			return protocol.FoldState{}, ctx.Err()
		}
		return j.ComputeCell(ctx, i)
	})
	<-second
	kill()
	f.start("w2", (*sweep.Job).ComputeCell)
	f.result(id, req)

	st := f.sched.Stats()
	if st.Expired < 1 || st.Reassigned < 1 || st.Workers["w2"].Completed == 0 {
		t.Fatalf("worker loss left no expiry and reassignment: %+v", st)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !slices.ContainsFunc(f.leases, func(l protocol.CellLease) bool { return l.Worker == "doomed" && len(l.More) > 0 }) {
		t.Fatal("the doomed worker never held a chunk")
	}
}
