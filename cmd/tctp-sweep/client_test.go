package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/server"
	"tctp/internal/sweep/worker"
)

// startServer brings up an in-process tctp-server for client-mode
// tests.
func startServer(t *testing.T, cfg server.Config) *httptest.Server {
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

// TestClientModeByteIdentity: `-server URL` produces exactly the bytes
// a local run of the same flags produces, for both CSV and JSONL, and
// a repeat submission (served from cache) still matches.
func TestClientModeByteIdentity(t *testing.T) {
	ts := startServer(t, server.Config{})
	for _, format := range []string{"csv", "json"} {
		local := goldenConfig()
		local.Format = format
		var want, errw bytes.Buffer
		if err := run(local, &want, &errw); err != nil {
			t.Fatal(err)
		}

		for pass := 1; pass <= 2; pass++ {
			remote := local
			remote.Server = ts.URL
			var got, rerr bytes.Buffer
			if err := run(remote, &got, &rerr); err != nil {
				t.Fatalf("%s pass %d: %v", format, pass, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s pass %d: client output diverged from local run:\n%s\nvs\n%s",
					format, pass, got.Bytes(), want.Bytes())
			}
			if !strings.Contains(rerr.String(), "submitted s") {
				t.Fatalf("%s pass %d: submit report missing:\n%s", format, pass, rerr.String())
			}
		}
	}
}

// TestClientModeProgress: -progress with -server follows the event
// stream; on a warm cache the summary reports cached cells.
func TestClientModeProgress(t *testing.T) {
	ts := startServer(t, server.Config{})
	cfg := goldenConfig()
	cfg.Server = ts.URL
	cfg.Progress = true

	var out, errw bytes.Buffer
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "local") || !strings.Contains(errw.String(), "done:") {
		t.Fatalf("cold progress summary missing:\n%s", errw.String())
	}

	var out2, errw2 bytes.Buffer
	if err := run(cfg, &out2, &errw2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw2.String(), "0 local") ||
		!strings.Contains(errw2.String(), "8 cached") {
		t.Fatalf("warm run should report all cells cached:\n%s", errw2.String())
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatal("warm run output diverged from cold run")
	}
}

// TestClientModeRemoteWorkers: against a -workers remote server with a
// fleet attached, the client's bytes still match the local run and the
// -progress summary attributes cells to worker:<id>.
func TestClientModeRemoteWorkers(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dispatch.New(dispatch.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	ts := startServer(t, server.Config{Store: store, Dispatch: sched})

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for _, id := range []string{"w1", "w2"} {
		done := make(chan struct{})
		go func(id string) {
			defer close(done)
			_ = worker.Run(ctx, worker.Options{Server: ts.URL, ID: id, Poll: time.Second})
		}(id)
		t.Cleanup(func() { cancel(); <-done })
	}

	local := goldenConfig()
	var want, lerr bytes.Buffer
	if err := run(local, &want, &lerr); err != nil {
		t.Fatal(err)
	}

	remote := local
	remote.Server = ts.URL
	remote.Progress = true
	var got, errw bytes.Buffer
	if err := run(remote, &got, &errw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("remote-fleet output diverged from local run:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
	summary := errw.String()
	if !regexp.MustCompile(`\d+ worker:w[12]`).MatchString(summary) {
		t.Fatalf("summary does not attribute cells to workers:\n%s", summary)
	}
	if !strings.Contains(summary, "0 local") {
		t.Fatalf("remote sweep reported local computes:\n%s", summary)
	}
}

// TestClientModeCapacity: a 429 from the server surfaces as a clear
// retry message, not a decode error. The server's Retry-After hint is
// its constant 2 s.
func TestClientModeCapacity(t *testing.T) {
	ts := startServer(t, server.Config{MaxSweeps: -1})
	cfg := goldenConfig()
	cfg.Server = ts.URL
	err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "capacity") ||
		!strings.Contains(err.Error(), "retry after 2s") {
		t.Fatalf("err = %v, want capacity message with retry hint", err)
	}
}

// TestClientModeFlagErrors: flags the server cannot honor are refused
// client-side with messages naming the conflict.
func TestClientModeFlagErrors(t *testing.T) {
	ts := startServer(t, server.Config{})
	for name, mutate := range map[string]func(*config){
		"checkpoint": func(c *config) { c.Checkpoint = "ck.jsonl" },
		"resume":     func(c *config) { c.Checkpoint = "ck.jsonl"; c.Resume = true },
		"shard":      func(c *config) { c.Shard = "1/2" },
		"merge":      func(c *config) { c.Merge = "-"; c.MergeInputs = []string{"x.jsonl"} },
	} {
		cfg := goldenConfig()
		cfg.Server = ts.URL
		mutate(&cfg)
		err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-server conflicts") {
			t.Fatalf("%s: err = %v, want -server conflict", name, err)
		}
	}
	// table rendering is local-only.
	cfg := goldenConfig()
	cfg.Server = ts.URL
	cfg.Format = "table"
	err := run(cfg, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `format "table"`) {
		t.Fatalf("table format: err = %v", err)
	}
	// A bad sweep is rejected by the server and the message travels back.
	cfg = goldenConfig()
	cfg.Server = ts.URL
	cfg.Algorithms = "bogus"
	err = run(cfg, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "submit rejected") {
		t.Fatalf("bad algorithm: err = %v", err)
	}
}
