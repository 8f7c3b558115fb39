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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TCTP_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestProfileFlags: -cpuprofile and -memprofile write gzipped pprof
// profiles to their own files and leave standard output byte-identical.
func TestProfileFlags(t *testing.T) {
	args := []string{"-alg", "btctp,chb", "-targets", "8", "-mules", "2", "-seeds", "2", "-horizon", "5000", "-format", "json"}
	plain := runMain(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	profiled := runMain(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
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
}
