package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// TCTP_RUN_MAIN=1 in its environment it runs main on its arguments
// instead of the tests, so a test can drive the real flag parsing in a
// subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("TCTP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a subprocess and returns its
// standard output.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	out, stderr, err := tryMain(args...)
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr)
	}
	return out
}

// tryMain runs the command with args in a subprocess and returns its
// standard output, its standard error and how it exited.
func tryMain(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCTP_RUN_MAIN=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	return out, errBuf.Bytes(), err
}

// TestProfileFlags: -cpuprofile and -memprofile write gzipped pprof
// profiles, and -trace a runtime/trace execution trace, to their own
// files and leave standard output byte-identical; a path that cannot
// be created fails the run before it writes any output.
func TestProfileFlags(t *testing.T) {
	args := []string{"-alg", "btctp,chb", "-targets", "8", "-mules", "2", "-seeds", "2", "-horizon", "5000", "-format", "json"}
	plain := runMain(t, args...)
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.out")
	profiled := runMain(t, append(args, "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr)...)
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Fatalf("output with profiling differs (%d vs %d bytes)", len(profiled), len(plain))
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
	for flag, what := range map[string]string{"-cpuprofile": "cpu profile", "-memprofile": "memory profile", "-trace": "trace"} {
		out, stderr, err := tryMain(append(args, flag, filepath.Join(dir, "missing", "f"))...)
		if err == nil || len(out) > 0 || !bytes.Contains(stderr, []byte(what)) {
			t.Fatalf("%s into a missing directory: exit %v, %d bytes of output, stderr %q", flag, err, len(out), stderr)
		}
	}
}
