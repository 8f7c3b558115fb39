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

// startWorker starts the command with args in a subprocess.
func startWorker(t *testing.T, stderr *bytes.Buffer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCTP_RUN_MAIN=1")
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestProfileFlags: a worker started with -cpuprofile and -memprofile
// writes gzipped pprof profiles when SIGTERM shuts it down cleanly,
// and a profile path it cannot create stops it before it polls.
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

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	cmd := startWorker(t, &stderr, "-server", ts.URL, "-poll", "1s", "-cpuprofile", cpu, "-memprofile", mem)
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
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) { // pprof's gzip framing
			t.Fatalf("%s is not a pprof profile (%d bytes)", filepath.Base(p), len(b))
		}
	}

	stderr.Reset()
	bad := startWorker(t, &stderr, "-server", ts.URL, "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"))
	if err := bad.Wait(); err == nil {
		t.Fatal("worker accepted a CPU profile path it cannot create")
	}
	if !bytes.Contains(stderr.Bytes(), []byte("cpu profile")) {
		t.Fatalf("unhelpful error for a bad profile path:\n%s", stderr.Bytes())
	}
}
