package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
	"tctp/internal/xrand"
)

// The paper's §5.1 evaluation grid (Figs. 7–10): 5 algorithms × 5
// target counts × 4 fleet sizes, 100 cells.
var (
	paperAlgs    = []string{"btctp", "wtctp", "chb", "sweep", "random"}
	paperTargets = []string{"10", "20", "30", "40", "50"}
	paperMules   = []string{"2", "4", "6", "8"}
)

// paperRequest is a sweep over a sub-grid of the paper grid, under one
// short replication protocol.
func paperRequest(algs, targets, mules []string) protocol.SweepRequest {
	return protocol.SweepRequest{
		Algorithms: strings.Join(algs, ","),
		Preset:     "paper51",
		Targets:    strings.Join(targets, ","),
		Mules:      strings.Join(mules, ","),
		Seeds:      2,
		Horizon:    20_000,
	}
}

// subset draws a uniform non-empty subset of xs, keeping xs's order.
func subset(src *xrand.Source, xs []string) []string {
	mask := 1 + src.Intn(1<<len(xs)-1)
	var out []string
	for i, x := range xs {
		if mask&(1<<i) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// sweepCSV submits a request and fetches its CSV, as a client of the
// service does.
func sweepCSV(b *testing.B, url string, req protocol.SweepRequest) []byte {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub protocol.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	resp, err = http.Get(url + "/sweeps/" + sub.ID + "/result.csv")
	if err != nil {
		b.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("result.csv: HTTP %d: %v %s", resp.StatusCode, err, csv)
	}
	return csv
}

// BenchmarkServerWarmSweep measures a warm tctp-server round trip: an
// httptest server whose cache holds the whole paper grid answers a
// fixed sequence of 64 seeded sub-grid requests, each a POST /sweeps
// and a GET result.csv. Every cell is a cache hit, so an operation
// costs request decoding, planning and cell keys, cache probes, the
// CSV and HTTP, and no simulation.
func BenchmarkServerWarmSweep(b *testing.B) {
	ts := newServer(b, server.Config{})
	full := sweepCSV(b, ts.URL, paperRequest(paperAlgs, paperTargets, paperMules))
	if rows := bytes.Count(full, []byte("\n")); rows != 101 {
		b.Fatalf("paper grid CSV has %d lines, want 101", rows)
	}
	src := xrand.New(1)
	reqs := make([]protocol.SweepRequest, 64)
	for i := range reqs {
		reqs[i] = paperRequest(subset(src, paperAlgs), subset(src, paperTargets), subset(src, paperMules))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepCSV(b, ts.URL, reqs[i%len(reqs)])
	}
}
