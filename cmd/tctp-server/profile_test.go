package main

import (
	"bytes"
	"net"
	"net/http"
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

// startServer starts the command with args in a subprocess, its
// standard output and error going to the buffers.
func startServer(t *testing.T, stdout, stderr *bytes.Buffer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCTP_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// freeAddr picks a free loopback address.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestProfileFlags: a server started with -cpuprofile and -memprofile
// writes gzipped pprof profiles, and with -trace an execution trace,
// when SIGTERM shuts it down cleanly; its standard output is the same
// with and without them, and a path it cannot create stops it before
// it listens.
func TestProfileFlags(t *testing.T) {
	// serve runs a server until it answers /stats, shuts it down with
	// SIGTERM and returns its standard output.
	serve := func(args ...string) []byte {
		addr := freeAddr(t)
		var stdout, stderr bytes.Buffer
		cmd := startServer(t, &stdout, &stderr, append([]string{"-addr", addr}, args...)...)
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/stats")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("server never answered /stats\n%s", stderr.Bytes())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("server exit: %v\n%s", err, stderr.Bytes())
		}
		if !bytes.Contains(stderr.Bytes(), []byte("tctp-server: shut down")) {
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
		bad := startServer(t, new(bytes.Buffer), &stderr, "-addr", freeAddr(t), flag, filepath.Join(dir, "missing", "f"))
		if err := bad.Wait(); err == nil {
			t.Fatalf("server accepted a %s path it cannot create", flag)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(what)) || bytes.Contains(stderr.Bytes(), []byte("listening")) {
			t.Fatalf("a bad %s path must stop the server before it listens:\n%s", flag, stderr.Bytes())
		}
	}
}
