package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: with
// TCTP_RUN_MAIN=1 in its environment it runs main on its arguments
// instead of the tests, so a test can drive the real flag parsing and
// signal shutdown in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("TCTP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startWorker starts the command with args in a subprocess, its
// standard output and error going to the buffers.
func startWorker(t *testing.T, stdout, stderr *bytes.Buffer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCTP_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestProfileFlags: a worker started with -cpuprofile and -memprofile
// writes gzipped pprof profiles, and with -trace an execution trace,
// when SIGTERM shuts it down cleanly; its standard output is the same
// with and without them, and a path it cannot create stops it before
// it polls.
func TestProfileFlags(t *testing.T) {
	polls := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/workers/lease" {
			http.NotFound(w, r)
			return
		}
		select {
		case polls <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond) // a short long-poll with nothing to lease
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	// serve runs a worker until it has polled twice, shuts it down with
	// SIGTERM and returns its standard output.
	serve := func(args ...string) []byte {
		select {
		case <-polls: // a poll left over from an earlier worker
		default:
		}
		var stdout, stderr bytes.Buffer
		cmd := startWorker(t, &stdout, &stderr, append([]string{"-server", ts.URL, "-poll", "1s"}, args...)...)
		for i := 0; i < 2; i++ {
			select {
			case <-polls:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatalf("worker never polled\n%s", stderr.Bytes())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("worker exit: %v\n%s", err, stderr.Bytes())
		}
		if !bytes.Contains(stderr.Bytes(), []byte("tctp-worker: shut down")) {
			t.Fatalf("no clean shutdown logged:\n%s", stderr.Bytes())
		}
		return stdout.Bytes()
	}

	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.out")
	plain := serve()
	if profiled := serve("-cpuprofile", cpu, "-memprofile", mem, "-trace", tr); !bytes.Equal(plain, profiled) {
		t.Fatalf("standard output with profiling differs:\n%q\n%q", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) { // pprof's gzip framing
			t.Fatalf("%s is not a pprof profile (%d bytes)", filepath.Base(p), len(b))
		}
	}
	if b, err := os.ReadFile(tr); err != nil || !bytes.HasPrefix(b, []byte("go 1.")) { // runtime/trace's header
		t.Fatalf("trace.out is not an execution trace (%d bytes, %v)", len(b), err)
	}

	for flag, what := range map[string]string{"-cpuprofile": "cpu profile", "-trace": "trace"} {
		var stderr bytes.Buffer
		bad := startWorker(t, new(bytes.Buffer), &stderr, "-server", ts.URL, flag, filepath.Join(dir, "missing", "f"))
		if err := bad.Wait(); err == nil {
			t.Fatalf("worker accepted a %s path it cannot create", flag)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(what)) || bytes.Contains(stderr.Bytes(), []byte("pulling leases")) {
			t.Fatalf("a bad %s path must stop the worker before it polls:\n%s", flag, stderr.Bytes())
		}
	}
}
