package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/xrand"
)

// quantizedSD is a steady-state SD metric rounded below its
// floating-point noise floor: exactly 0 every seed for the planned
// algorithms, noisy for Random — the test bed for adaptive stopping.
func quantizedSD() Metric {
	return Metric{Name: "steady_sd", Fn: func(e Env) float64 {
		return math.Round(e.Result.Recorder.AvgSDAfter(e.Warm())*1e6) / 1e6
	}}
}

// runCkpt plans the spec and runs it checkpointing to path, resuming
// from the file when resume is set.
func runCkpt(ctx context.Context, spec Spec, path string, resume bool, sinks ...Sink) (*Result, error) {
	j, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	p, err := j.Run(ctx, RunOpts{Checkpoint: path, Resume: resume, Sinks: sinks})
	if err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// ckptSpec is the checkpoint workload: multiple cells, scalar and
// vector metrics, enough replications that a mid-flight kill leaves
// every cell partially folded.
func ckptSpec() Spec {
	return Spec{
		Name: "ckpt",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("random", patrol.Online(&baseline.Random{})),
		},
		Targets:  []int{6, 8},
		Mules:    []int{2},
		Horizons: []float64{4_000},
		Metrics:  []Metric{AvgDCDT(), AvgSD(), MaxInterval(), quantizedSD()},
		Vectors:  []VectorMetric{DCDTCurve(8)},
		Seeds:    6,
	}
}

// counted wraps a spec's metrics so the first metric's evaluations are
// counted: one evaluation per executed replication. The metric names —
// and therefore the checkpoint fingerprint — are unchanged.
func counted(spec Spec, n *atomic.Int64) Spec {
	inner := spec.Metrics[0].Fn
	spec.Metrics[0].Fn = func(e Env) float64 {
		n.Add(1)
		return inner(e)
	}
	return spec
}

func runToBytes(t *testing.T, run func(sinks ...Sink) (*Result, error)) (string, *Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := run(CSV(&buf), JSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), res
}

// TestKillAndResumeByteIdentical is the acceptance test of the
// checkpoint layer: a sweep killed mid-flight via context cancellation
// and resumed from its checkpoint produces byte-identical CSV and
// JSONL output to an uninterrupted run of the same spec — for the
// plain protocol and for adaptive replication.
func TestKillAndResumeByteIdentical(t *testing.T) {
	// Watching the quantized SD makes the btctp cells stop at MinReps,
	// so the resume also restores adaptively frozen cells.
	adaptive := ckptSpec()
	adaptive.Adaptive = &Adaptive{Metric: "steady_sd", RelCI: 0.05, MinReps: 3}
	for name, spec := range map[string]Spec{"plain": ckptSpec(), "adaptive": adaptive} {
		t.Run(name, func(t *testing.T) {
			want, wantRes := runToBytes(t, func(sinks ...Sink) (*Result, error) {
				return Run(context.Background(), spec, sinks...)
			})

			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			killed := spec
			killed.Progress = func(p Progress) {
				if p.RunsDone >= 4 {
					cancel() // kill mid-flight, most cells half-folded
				}
			}
			if _, err := runCkpt(ctx, killed, path, false); err == nil ||
				!errors.Is(err, context.Canceled) {
				t.Fatalf("killed run returned %v, want context.Canceled", err)
			}

			var execs atomic.Int64
			got, gotRes := runToBytes(t, func(sinks ...Sink) (*Result, error) {
				return runCkpt(context.Background(), counted(spec, &execs), path, true, sinks...)
			})
			if got != want {
				t.Fatalf("resumed output differs from uninterrupted run:\n--- resumed ---\n%s--- want ---\n%s", got, want)
			}
			if gotRes.Runs != wantRes.Runs {
				t.Fatalf("resumed Runs = %d, uninterrupted = %d", gotRes.Runs, wantRes.Runs)
			}
			// The resume actually reused checkpointed work: it executed
			// fewer replications than the whole sweep holds.
			if n := execs.Load(); n == 0 || n >= int64(wantRes.Runs) {
				t.Fatalf("resume executed %d replications of %d total — checkpoint unused", n, wantRes.Runs)
			}
		})
	}
}

// A finished checkpoint resumes to identical output with zero
// replications re-executed — everything is restored state.
func TestResumeFinishedCheckpoint(t *testing.T) {
	spec := ckptSpec()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	want, _ := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return runCkpt(context.Background(), spec, path, false, sinks...)
	})
	var execs atomic.Int64
	got, _ := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return runCkpt(context.Background(), counted(spec, &execs), path, true, sinks...)
	})
	if got != want {
		t.Fatalf("finished-checkpoint resume diverged:\n%s\nvs\n%s", got, want)
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("finished-checkpoint resume re-executed %d replications", n)
	}
}

// Resuming under a structurally different spec must be refused: the
// fingerprint in the header pins cells, metrics, and protocol.
func TestResumeFingerprintMismatch(t *testing.T) {
	spec := ckptSpec()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := runCkpt(context.Background(), spec, path, false); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec){
		"seeds":    func(s *Spec) { s.Seeds = 9 },
		"baseseed": func(s *Spec) { s.BaseSeed = 1 },
		"targets":  func(s *Spec) { s.Targets = []int{6, 9} },
		"metrics":  func(s *Spec) { s.Metrics = []Metric{AvgDCDT()} },
	} {
		other := ckptSpec()
		mutate(&other)
		_, err := runCkpt(context.Background(), other, path, true)
		if err == nil || !strings.Contains(err.Error(), "different sweep spec") {
			t.Fatalf("%s mutation: err = %v, want fingerprint refusal", name, err)
		}
	}
}

func TestResumeCorruptCheckpoint(t *testing.T) {
	spec := ckptSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	if _, err := runCkpt(context.Background(), spec, path, false); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(pristine), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too small to corrupt: %d lines", len(lines))
	}

	corrupt := func(t *testing.T, content, wantErr string) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := runCkpt(context.Background(), spec, p, true)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("corrupt resume: err = %v, want %q", err, wantErr)
		}
	}

	t.Run("garbage-record", func(t *testing.T) {
		mod := append([]string{}, lines...)
		mod[2] = "{not json at all\n"
		corrupt(t, strings.Join(mod, ""), "corrupt record")
	})
	t.Run("garbage-header", func(t *testing.T) {
		mod := append([]string{}, lines...)
		mod[0] = "###\n"
		corrupt(t, strings.Join(mod, ""), "malformed header")
	})
	t.Run("missing-file", func(t *testing.T) {
		_, err := runCkpt(context.Background(), spec, filepath.Join(dir, "absent.ckpt"), true)
		if err == nil || !strings.Contains(err.Error(), "open checkpoint") {
			t.Fatalf("missing checkpoint: err = %v", err)
		}
	})
	t.Run("inconsistent-counter", func(t *testing.T) {
		// A record whose scalar sample counts disagree with its own
		// next-replication counter is corruption, not a crash artifact.
		mod := append([]string{}, lines...)
		var rec checkpointRecord
		if err := json.Unmarshal([]byte(mod[1]), &rec); err != nil {
			t.Fatal(err)
		}
		rec.Scalars[0].N++
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		mod[1] = string(b) + "\n"
		corrupt(t, strings.Join(mod, ""), "counter says")
	})

	t.Run("two-bad-cells", func(t *testing.T) {
		// With two cells whose records the spec cannot have produced,
		// the refusal names the lower cell on every attempt: the
		// records are checked in cell order, not in map order.
		last := map[int]int{} // cell → line of its latest record
		for i, l := range lines[1:] {
			var rec checkpointRecord
			if json.Unmarshal([]byte(l), &rec) == nil {
				last[rec.Cell] = i + 1
			}
		}
		mod := append([]string{}, lines...)
		for _, cell := range []int{3, 1} {
			var rec checkpointRecord
			if err := json.Unmarshal([]byte(mod[last[cell]]), &rec); err != nil {
				t.Fatal(err)
			}
			rec.Scalars = rec.Scalars[:len(rec.Scalars)-1]
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			mod[last[cell]] = string(b) + "\n"
		}
		for i := 0; i < 20; i++ {
			corrupt(t, strings.Join(mod, ""), ": cell 1 carries")
		}
	})

	t.Run("truncated-final-line", func(t *testing.T) {
		// A half-written final record is the normal signature of a
		// crash: it is discarded, and the resume still matches the
		// uninterrupted output.
		var want bytes.Buffer
		if _, err := Run(context.Background(), spec, CSV(&want)); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "trunc.ckpt")
		whole := strings.Join(lines, "")
		if err := os.WriteFile(p, []byte(whole[:len(whole)-20]), 0o644); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := runCkpt(context.Background(), spec, p, true, CSV(&got)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("truncated-checkpoint resume diverged:\n%s\nvs\n%s", got.String(), want.String())
		}
		// The resume truncated the partial line before appending, so
		// the file is well-formed again: a second resume must parse
		// every line (pre-fix, the first appended record was glued to
		// the partial line and poisoned the checkpoint).
		var again bytes.Buffer
		if _, err := runCkpt(context.Background(), spec, p, true, CSV(&again)); err != nil {
			t.Fatalf("checkpoint corrupted by resuming past a truncated line: %v", err)
		}
		if again.String() != want.String() {
			t.Fatalf("second resume diverged")
		}
	})

	t.Run("unterminated-valid-line", func(t *testing.T) {
		// A torn write can cut exactly at the final newline, leaving
		// complete JSON with no terminator. The line is discarded and
		// re-executed; crucially the truncate-before-append must not
		// count the phantom newline, or the file gains a NUL byte and
		// the next resume finds garbage.
		var want bytes.Buffer
		if _, err := Run(context.Background(), spec, CSV(&want)); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "unterm.ckpt")
		whole := strings.Join(lines, "")
		if err := os.WriteFile(p, []byte(strings.TrimSuffix(whole, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			var got bytes.Buffer
			if _, err := runCkpt(context.Background(), spec, p, true, CSV(&got)); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			if got.String() != want.String() {
				t.Fatalf("pass %d diverged", pass)
			}
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(b, 0) {
			t.Fatal("truncate extended the checkpoint with a NUL byte")
		}
	})

	t.Run("unterminated-header", func(t *testing.T) {
		corrupt(t, strings.TrimSuffix(lines[0], "\n"), "truncated header")
	})
}

// TestAdaptiveStopsEarly is the adaptive acceptance test: a
// zero-variance cell (B-TCTP's steady-state SD, quantized below its
// ~1e-13 floating-point noise floor, is exactly 0 every seed) stops at
// MinReps while a noisy cell (Random) runs to the cap, the CSV reps
// column reports the actual counts, and the stop reason is surfaced.
func TestAdaptiveStopsEarly(t *testing.T) {
	spec := Spec{
		Name: "adaptive",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("random", patrol.Online(&baseline.Random{})),
		},
		Targets:  []int{6},
		Mules:    []int{2},
		Horizons: []float64{4_000},
		Metrics:  []Metric{AvgDCDT(), quantizedSD()},
		Seeds:    12,
		Adaptive: &Adaptive{Metric: "steady_sd", RelCI: 0.01, MinReps: 3},
	}
	var buf bytes.Buffer
	res, err := Run(context.Background(), spec, CSV(&buf))
	if err != nil {
		t.Fatal(err)
	}
	btctp, random := res.Cells[0], res.Cells[1]
	if btctp.Reps != 3 {
		t.Fatalf("zero-variance cell ran %d reps, want MinReps=3", btctp.Reps)
	}
	if btctp.StopReason == "" || !strings.Contains(btctp.StopReason, "steady_sd") {
		t.Fatalf("stop reason %q", btctp.StopReason)
	}
	if random.Reps != 12 {
		t.Fatalf("noisy cell ran %d reps, want the MaxReps cap 12", random.Reps)
	}
	if random.StopReason != "" {
		t.Fatalf("noisy cell carries stop reason %q", random.StopReason)
	}
	if len(res.Stopped) != 1 || res.Stopped[0].Reps != 3 ||
		res.Stopped[0].Point.Algorithm != "btctp" {
		t.Fatalf("Stopped = %+v", res.Stopped)
	}
	// Metric Ns and the CSV reps column agree with the actual counts.
	if n := btctp.Metric("steady_sd").N; n != 3 {
		t.Fatalf("stopped cell aggregated %d samples", n)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(rows[1], ",3,") || !strings.Contains(rows[2], ",12,") {
		t.Fatalf("reps column missing from CSV:\n%s", buf.String())
	}
	if res.Runs != 3+12 {
		t.Fatalf("Runs = %d, want 15 (discarded in-flight reps must not count)", res.Runs)
	}
}

// Adaptive stop decisions depend only on the seed-ordered folded
// prefix, so output stays bit-identical across worker counts.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 4, 8} {
		spec := ckptSpec()
		spec.Adaptive = &Adaptive{Metric: "avg_sd_s", RelCI: 0.05, MinReps: 3}
		spec.Workers = workers
		var buf bytes.Buffer
		if _, err := Run(context.Background(), spec, CSV(&buf), JSONL(&buf)); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("adaptive output depends on worker count:\n%s\nvs\n%s",
				outputs[0], outputs[i])
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	base := func() Spec {
		s := ckptSpec()
		s.Adaptive = &Adaptive{Metric: "avg_sd_s", RelCI: 0.05}
		return s
	}
	cases := map[string]func(*Spec){
		"no-relci":       func(s *Spec) { s.Adaptive.RelCI = 0 },
		"negative-relci": func(s *Spec) { s.Adaptive.RelCI = -1 },
		"unknown-metric": func(s *Spec) { s.Adaptive.Metric = "nope" },
		"vector-metric":  func(s *Spec) { s.Adaptive.Metric = "dcdt_curve" },
		"minreps-1":      func(s *Spec) { s.Adaptive.MinReps = 1 },
		"min-beyond-max": func(s *Spec) { s.Adaptive.MinReps = 9; s.Adaptive.MaxReps = 4 },
	}
	for name, mutate := range cases {
		spec := base()
		mutate(&spec)
		if _, err := Run(context.Background(), spec); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := runCkpt(context.Background(), base(), "", true); err == nil {
		t.Fatal("empty resume path accepted")
	}
}

// Adaptive MinReps defaults to 5 and clamps to a smaller cap.
func TestAdaptiveDefaults(t *testing.T) {
	a := (&Adaptive{Metric: "m", RelCI: 0.1}).withDefaults(20)
	if a.MinReps != 5 || a.MaxReps != 20 {
		t.Fatalf("defaults %+v", a)
	}
	a = (&Adaptive{Metric: "m", RelCI: 0.1, MaxReps: 3}).withDefaults(20)
	if a.MinReps != 3 || a.MaxReps != 3 {
		t.Fatalf("clamped defaults %+v", a)
	}
}

// Workload and fleet configuration is hashed beyond the names the
// points carry, and hook-carried config rides Spec.ConfigDigest: a
// resume under any of them changed is refused.
func TestResumeFingerprintCoversConfig(t *testing.T) {
	spec := ckptSpec()
	spec.Workloads = []scenario.Workload{{}, packetsWorkload()}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := runCkpt(context.Background(), spec, path, false); err != nil {
		t.Fatal(err)
	}

	refuse := func(name string, other Spec) {
		t.Helper()
		if _, err := runCkpt(context.Background(), other, path, true); err == nil ||
			!strings.Contains(err.Error(), "different sweep spec") {
			t.Fatalf("%s: err = %v, want fingerprint refusal", name, err)
		}
	}
	// Same workload name, different buffer capacity: the point strings
	// are identical, only the config differs.
	buffered := spec
	buffered.Workloads = []scenario.Workload{{}, packetsWorkload()}
	buffered.Workloads[1].Data.BufferCap = 99
	refuse("workload-config", buffered)
	// Hook-carried configuration serialized into ConfigDigest.
	digested := spec
	digested.ConfigDigest = `{"width":600}`
	refuse("config-digest", digested)

	// The unchanged spec still resumes.
	if _, err := runCkpt(context.Background(), spec, path, true); err != nil {
		t.Fatal(err)
	}
}

// An error on a replication beyond a cell's adaptive stop must be
// discarded like its values would be: errors surface in seed order,
// so whether the sweep fails cannot depend on worker count or on how
// early an in-flight doomed replication was delivered.
func TestAdaptiveDiscardsErrorsBeyondStop(t *testing.T) {
	// Replications 4+ produce a broken scenario; the btctp cell stops
	// at MinReps=3, so those replications must never surface.
	bad := map[uint64]bool{}
	for r := 4; r < 12; r++ {
		st := scenario.SeedStreams(uint64(r))
		bad[st.Scenario.Uint64()] = true
	}
	var outputs []string
	for _, workers := range []int{1, 8} {
		spec := Spec{
			Name:       "adaptive-errors",
			Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
			Targets:    []int{6},
			Mules:      []int{2},
			Horizons:   []float64{4_000},
			Metrics:    []Metric{AvgDCDT(), quantizedSD()},
			Seeds:      12,
			Workers:    workers,
			Adaptive:   &Adaptive{Metric: "steady_sd", RelCI: 0.05, MinReps: 3},
			Scenario: func(p Point, src *xrand.Source) *field.Scenario {
				head := src.Uint64()
				s := mustGenerate(field.Config{NumTargets: p.Targets, NumMules: p.Mules}, src)
				if bad[head] {
					s.MuleStarts = nil // patrol.Run rejects this
				}
				return s
			},
		}
		var buf bytes.Buffer
		res, err := Run(context.Background(), spec, CSV(&buf))
		if err != nil {
			t.Fatalf("workers=%d: error from a replication beyond the stop: %v", workers, err)
		}
		if res.Cells[0].Reps != 3 {
			t.Fatalf("workers=%d: %d reps, want 3", workers, res.Cells[0].Reps)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output depends on worker count:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}
