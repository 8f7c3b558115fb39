package server_test

// The server encodes a cell's result only when a client asks for it:
// GET result.jsonl replays the kept sweep.Result through the JSONL
// sink, and /events encodes each cell event's result as it streams it.
// These tests pin both renderings to each other and to a local run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
)

// jsonlCells maps each cell line of a result.jsonl to its cell index,
// keeping the line's bytes without the newline.
func jsonlCells(t *testing.T, jsonl []byte) map[int][]byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(jsonl, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("result.jsonl has %d lines", len(lines))
	}
	out := make(map[int][]byte)
	for _, line := range lines[1 : len(lines)-1] { // header and summary aside
		var c struct {
			Cell *int `json:"cell"`
		}
		if err := json.Unmarshal(line, &c); err != nil || c.Cell == nil {
			t.Fatalf("result.jsonl cell line %q: %v", line, err)
		}
		out[*c.Cell] = line
	}
	return out
}

// readEvents reads an NDJSON event stream to its end and returns each
// cell event's result bytes by cell index, failing unless the stream
// ends with a "done" event.
func readEvents(t *testing.T, body io.Reader) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		var ev protocol.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		last = ev.Type
		if ev.Type != "cell" {
			continue
		}
		if _, dup := out[ev.Cell]; dup {
			t.Fatalf("cell %d streamed twice", ev.Cell)
		}
		out[ev.Cell] = ev.Result
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last != "done" {
		t.Fatalf("event stream ended with %q, want done", last)
	}
	return out
}

// checkEventsMatchJSONL requires one cell event per result.jsonl cell
// line, each event's result byte-identical to the line.
func checkEventsMatchJSONL(t *testing.T, events map[int][]byte, jsonl []byte) {
	t.Helper()
	lines := jsonlCells(t, jsonl)
	if len(events) != len(lines) {
		t.Fatalf("%d cell events, %d result.jsonl cells", len(events), len(lines))
	}
	for cell, line := range lines {
		if got, ok := events[cell]; !ok || !bytes.Equal(got, line) {
			t.Errorf("cell %d: event result\n%s\nresult.jsonl line\n%s", cell, got, line)
		}
	}
}

// openEvents opens a sweep's event stream. The server flushes the
// response header before it waits for the first event, so the stream
// is open when this returns.
func openEvents(t *testing.T, url string) io.ReadCloser {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp.Body
}

// holdCompute starts a Fold of key whose compute blocks until the
// returned release is called and then fails. With a compute gate of
// one it holds the store's only compute slot; on a cell's key the
// cell's own Fold joins it and gets its error.
func holdCompute(t *testing.T, store *cache.Store, key string) (release func()) {
	t.Helper()
	held, hold := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		store.Fold(key, func() (protocol.FoldState, error) {
			close(held)
			<-hold
			return protocol.FoldState{}, errors.New("disk full")
		})
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(hold); <-done }) }
	t.Cleanup(release)
	return release
}

// TestEventResultsMatchJSONL: every cell event's result is the cell's
// result.jsonl line, whether /events replays a finished sweep, streams
// one live, or streams a sweep a worker fleet computes; result.jsonl
// answers the same bytes on every request, and matches a local run.
func TestEventResultsMatchJSONL(t *testing.T) {
	req := testRequest()
	_, wantJSONL := localReference(t, req)

	t.Run("replay after done", func(t *testing.T) {
		ts := newServer(t, server.Config{})
		sub := submit(t, ts, req)
		jsonl := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl")
		if again := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl"); !bytes.Equal(again, jsonl) {
			t.Fatal("two GET result.jsonl returned different bytes")
		}
		if !bytes.Equal(jsonl, wantJSONL) {
			t.Fatalf("result.jsonl differs from the local run:\n%s\nvs\n%s", jsonl, wantJSONL)
		}
		checkEventsMatchJSONL(t, readEvents(t, openEvents(t, ts.URL+"/sweeps/"+sub.ID+"/events")), jsonl)
	})

	t.Run("live", func(t *testing.T) {
		store, err := cache.New(cache.Options{Gate: 1})
		if err != nil {
			t.Fatal(err)
		}
		release := holdCompute(t, store, "sha256:"+strings.Repeat("0", 64))
		ts := newServer(t, server.Config{Store: store})
		sub := submit(t, ts, req)
		stream := openEvents(t, ts.URL+"/sweeps/"+sub.ID+"/events")
		if st := sweepStatus(t, ts, sub.ID); st.State != "running" || st.CellsDone != 0 {
			t.Fatalf("sweep resolved cells with the compute slot held: %+v", st)
		}
		release()
		events := readEvents(t, stream)
		jsonl := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl")
		if !bytes.Equal(jsonl, wantJSONL) {
			t.Fatal("result.jsonl differs from the local run")
		}
		checkEventsMatchJSONL(t, events, jsonl)
	})

	t.Run("remote", func(t *testing.T) {
		ts, _, _ := newRemoteServer(t, 30*time.Second, server.Config{})
		sub := submit(t, ts, req)
		// No worker is attached yet, so the stream opens before any
		// cell resolves.
		stream := openEvents(t, ts.URL+"/sweeps/"+sub.ID+"/events")
		startWorker(t, ts, "w1")
		startWorker(t, ts, "w2")
		events := readEvents(t, stream)
		jsonl := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl")
		if again := fetch(t, ts.URL+"/sweeps/"+sub.ID+"/result.jsonl"); !bytes.Equal(again, jsonl) {
			t.Fatal("two GET result.jsonl returned different bytes")
		}
		if !bytes.Equal(jsonl, wantJSONL) {
			t.Fatal("remote result.jsonl differs from the local run")
		}
		checkEventsMatchJSONL(t, events, jsonl)
	})
}

// TestFailedSweepResultConflict: a sweep whose cell fails keeps no
// result; both result endpoints answer 409 with the cell's error.
func TestFailedSweepResultConflict(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	spec, err := build.Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.CellKey(0)
	if err != nil {
		t.Fatal(err)
	}
	release := holdCompute(t, store, key)
	ts := newServer(t, server.Config{Store: store})
	sub := submit(t, ts, req)
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().Joins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never joined the held compute of its first cell")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for _, path := range []string{"/result.jsonl", "/result.csv"} {
		resp, err := http.Get(ts.URL + "/sweeps/" + sub.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "disk full") {
			t.Errorf("%s of a failed sweep: HTTP %d %q, want 409", path, resp.StatusCode, msg)
		}
	}
}
