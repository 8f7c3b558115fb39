package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
)

// testRequest is a small real sweep: 2 algorithms × 2 target counts.
func testRequest() protocol.SweepRequest {
	return protocol.SweepRequest{
		Algorithms: "btctp,random",
		Targets:    "6,8",
		Mules:      "2",
		Speeds:     "2",
		Seeds:      2,
		Horizon:    4_000,
	}
}

func newServer(t testing.TB, cfg server.Config) *httptest.Server {
	t.Helper()
	if cfg.Store == nil {
		store, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func submit(t *testing.T, ts *httptest.Server, req protocol.SweepRequest) protocol.SubmitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, msg)
	}
	var sub protocol.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b
}

// TestSweepLifecycle drives the full service path: submit, wait via
// the blocking result endpoints, compare against a local in-process
// run byte for byte, re-submit and observe the cache serving
// everything, and check the status and stats documents along the way.
func TestSweepLifecycle(t *testing.T) {
	ts := newServer(t, server.Config{})
	req := testRequest()

	// A local run of the same request is the byte-identity reference.
	spec, err := build.Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV, wantJSONL bytes.Buffer
	if _, err := sweep.Run(context.Background(), spec,
		sweep.CSV(&wantCSV), sweep.JSONL(&wantJSONL)); err != nil {
		t.Fatal(err)
	}

	sub := submit(t, ts, req)
	if sub.Cells != 4 || !strings.HasPrefix(sub.ID, "s") {
		t.Fatalf("submit response %+v", sub)
	}

	csv1 := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv")
	jsonl1 := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl")
	if !bytes.Equal(csv1, wantCSV.Bytes()) {
		t.Fatalf("server CSV differs from local run:\n%s\nvs\n%s", csv1, wantCSV.Bytes())
	}
	if !bytes.Equal(jsonl1, wantJSONL.Bytes()) {
		t.Fatal("server JSONL differs from local run")
	}

	var st protocol.SweepStatus
	if err := json.Unmarshal(fetch(t, ts.URL+"/sweeps/"+sub.ID), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.CellsDone != 4 || st.Computed != 4 || st.Hits != 0 {
		t.Fatalf("first sweep status %+v", st)
	}

	// Second submission: identical result, zero simulation.
	sub2 := submit(t, ts, req)
	csv2 := fetch(t, ts.URL+"/sweeps/"+sub2.ID+"/result.csv")
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("second submission's CSV differs from the first")
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/sweeps/"+sub2.ID), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 4 || st.Computed != 0 {
		t.Fatalf("second sweep should be all cache hits: %+v", st)
	}

	var stats server.Stats
	if err := json.Unmarshal(fetch(t, ts.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 2 || stats.Done != 2 || stats.Cache.Hits != 4 || stats.Cache.Misses != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestEventStream replays a finished sweep's NDJSON events: one cell
// event per cell with a valid key and source, then a terminal done.
func TestEventStream(t *testing.T) {
	ts := newServer(t, server.Config{})
	sub := submit(t, ts, testRequest())
	fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.csv") // wait for completion

	resp, err := http.Get(ts.URL + "/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	cells := 0
	sawDone := false
	for sc.Scan() {
		var ev protocol.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "cell":
			cells++
			if !protocol.ValidKey(ev.Key) || ev.Source == "" || ev.Result == nil {
				t.Fatalf("bad cell event %+v", ev)
			}
		case "done":
			sawDone = true
			if ev.Cells != 4 || ev.Runs != 8 {
				t.Fatalf("done event %+v", ev)
			}
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if cells != 4 || !sawDone {
		t.Fatalf("stream had %d cell events, done=%v", cells, sawDone)
	}
}

// TestAdmissionControl: beyond MaxSweeps in-flight sweeps, POST
// /sweeps answers 429 with a Retry-After hint, and the rejection is
// counted.
func TestAdmissionControl(t *testing.T) {
	// MaxSweeps < 0 means zero admitted — deterministic rejection.
	ts := newServer(t, server.Config{MaxSweeps: -1})
	body, _ := json.Marshal(testRequest())
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429", resp.Status)
	}
	if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(server.RetryAfter); got != want {
		t.Fatalf("Retry-After %q, want %s", got, want)
	}
	if !strings.Contains(string(msg), "capacity") {
		t.Fatalf("rejection body %q", msg)
	}
	var stats server.Stats
	if err := json.Unmarshal(fetch(t, ts.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 1 || stats.Submitted != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestBadRequests: malformed JSON, an unknown algorithm, and an
// unknown sweep id all answer 4xx, not 5xx or a hang.
func TestBadRequests(t *testing.T) {
	ts := newServer(t, server.Config{})
	for name, body := range map[string]string{
		"garbage":  "{not json",
		"bad alg":  `{"algorithms":"bogus"}`,
		"bad axis": `{"targets":"6;7"}`,
		"conflict": `{"preset":"paper51","scenario":{"targets":{"count":3}}}`,
	} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/sweeps/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %s, want 404", resp.Status)
	}
}

// TestFinishedSweepsBounded: a server keeps its MaxFinishedSweeps most
// recently used finished sweeps. Past that the oldest ids answer 404,
// the newest still serves its result, and /stats counts the evictions.
func TestFinishedSweepsBounded(t *testing.T) {
	ts := newServer(t, server.Config{})
	req := testRequest()
	req.Algorithms, req.Targets = "btctp", "6" // one cell, warm after the first sweep
	const k = 3
	ids := make([]string, server.MaxFinishedSweeps+k)
	var want []byte
	for i := range ids {
		ids[i] = submit(t, ts, req).ID
		csv := fetch(t, ts.URL+"/sweeps/"+ids[i]+"/result.csv")
		if i == 0 {
			want = csv
		} else if !bytes.Equal(csv, want) {
			t.Fatalf("sweep %d's CSV differs from the first", i)
		}
	}
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if evicted := i < k; evicted != (resp.StatusCode == http.StatusNotFound) {
			t.Fatalf("sweep %d of %d (%s): status %s", i, len(ids), id, resp.Status)
		}
	}
	if csv := fetch(t, ts.URL+"/sweeps/"+ids[len(ids)-1]+"/result.csv"); !bytes.Equal(csv, want) {
		t.Fatal("the newest sweep's CSV differs from the first")
	}
	var stats server.Stats
	if err := json.Unmarshal(fetch(t, ts.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != k || stats.Done != len(ids) {
		t.Fatalf("stats %+v, want %d evicted", stats, k)
	}
}

// TestWarmSweepSoak: a server answering warm one-cell sweeps holds a
// flat heap. After 300 sweeps (the first fills the cache) the live heap
// is read, then again after 300 more; everything a finished sweep
// keeps is bounded by maxFinishedSweeps, so the second reading may not
// exceed the first by more than 256 KiB. A finished one-cell sweep
// holds about 2.3 KB, so 300 more kept sweeps would add about 690 KB;
// with the bound in place the two readings differ by a few KB.
func TestWarmSweepSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	ts := newServer(t, server.Config{})
	req := testRequest()
	req.Algorithms, req.Targets = "btctp", "6"
	sweeps := func(n int) uint64 {
		for i := 0; i < n; i++ {
			fetch(t, ts.URL+"/sweeps/"+submit(t, ts, req).ID+"/result.csv")
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first := sweeps(300)
	if second := sweeps(300); second > first+256<<10 {
		t.Fatalf("live heap grew from %d to %d bytes over 300 warm sweeps", first, second)
	}
}

// TestOversizedPlanRefused: a request whose axes span just over
// sweep.MaxPlanCells cells (257 target counts × 256 fleet sizes) is
// refused with 400 before it is planned.
func TestOversizedPlanRefused(t *testing.T) {
	ts := newServer(t, server.Config{})
	axis := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 1)
		}
		return strings.Join(vals, ",")
	}
	req := protocol.SweepRequest{Algorithms: "btctp", Targets: axis(257), Mules: axis(256), Seeds: 1, Horizon: 100}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "65792 cells") {
		t.Fatalf("a %d-cell request: %s %q, want 400 naming its size", 257*256, resp.Status, msg)
	}
}

// TestConcurrentIdenticalSubmissions: N copies of one sweep submitted
// at once collapse to one computation per cell (single-flight), and
// every copy's result is byte-identical.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	ts := newServer(t, server.Config{Store: store, MaxSweeps: n})
	req := testRequest()

	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(t, ts, req).ID
	}
	results := make([][]byte, n)
	for i, id := range ids {
		results[i] = fetch(t, ts.URL+"/sweeps/"+id+"/result.csv")
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("submission %d returned different bytes", i)
		}
	}
	// Exactly one compute per cell across all n sweeps; the remaining
	// resolutions were hits or joins.
	st := store.Stats()
	if st.Misses != 4 {
		t.Fatalf("%d cells computed, want 4 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Joins != 4*(n-1) {
		t.Fatalf("hits %d + joins %d, want %d", st.Hits, st.Joins, 4*(n-1))
	}
}
