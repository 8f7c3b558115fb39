// Command bench is the end-to-end benchmark of the tctp CLIs. It builds
// tctp-sweep, tctp-server and tctp-worker from the checkout, drives one
// or all of its workloads against them as subprocesses from this one
// client process, checks every output, and prints the end-to-end
// metrics. With -trace 1 it also repeats each
// workload in-process with timing wrappers at the layers' public seams
// and prints the per-layer metrics instead.
//
// Run it from the repository root through its build script:
//
//	bash bench/run.sh --workload paper-local --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --trace 1 --out bench-out
//	bash bench/run.sh --baseline bench/results/BENCH_abc1234.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 0 when every output
// was correct, 1 when a check failed, 2 when the benchmark could not
// run. See bench/README.md for the workloads, the metrics and the
// protocol for comparing two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "seed of the generated inputs (the sweeps' base seed and the warm traffic)")
	secs := fs.Float64("seconds", 30, "measured seconds per workload (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 adds the traced in-process pass and reports per-layer metrics")
	out := fs.String("out", "", "directory for logs, traces and per-run records (default: a temporary directory, removed at exit)")
	smoke := fs.Bool("smoke", false, "toy sizes: one seed, horizon 2000 s, 50 warm requests")
	baselineF := fs.String("baseline", "", "write a baseline file: two sets of ten runs of every workload, plus one traced run each")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *baselineF != "" {
		return writeBaseline(ctx, root, *baselineF, *secs, stderr)
	}

	state := buildDir(root)
	dir := *out
	if dir == "" {
		tmp := filepath.Join(state, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err == nil {
			dir, err = os.MkdirTemp(tmp, "run-")
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := newHarness(root, dir, filepath.Join(state, "bin"))
	defer h.killAll()
	took, err := h.build(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	env := environment(root)
	fmt.Fprintf(stderr, "bench: built %d CLIs in %.2fs; nproc %d, %s, commit %s\n",
		len(clis), took.Seconds(), env.Nproc, env.Go, env.Commit)

	b := &bench{ctx: ctx, h: h, seed: *seed, size: fullSize}
	if *smoke {
		b.size = smokeSize
	}
	dur := time.Duration(*secs * float64(time.Second))
	code := 0
	for _, w := range selected {
		rep, rec, err := measure(b, w, dur, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		rec.Env = env
		if err := writeJSON(filepath.Join(dir, w.name+".json"), rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// record is everything one workload run measured, written to
// <out>/<workload>.json next to the trace.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Env      env    `json:"env"`
	Report   report `json:"report"`
	Problem  string `json:"problem,omitempty"`
	// WallS and SetupS are every operation's and set-up's time, unscaled;
	// Scale is each operation's host-load factor, and Raw the medians of
	// the end-to-end times unscaled.
	WallS  []float64            `json:"wall_s"`
	Scale  []factor             `json:"scale"`
	SetupS []float64            `json:"setup_s"`
	Raw    map[string]float64   `json:"raw"`
	Notes  map[string][]float64 `json:"notes,omitempty"`
	// Tail is the highest percentile of wall_s with at least ten
	// samples beyond it, when the run has that many operations.
	Tail *tail `json:"tail,omitempty"`
	// Visits and Reps count the traced run's simulated visits and
	// replications: they repeat exactly unless behaviour changed.
	Visits int64 `json:"visits,omitempty"`
	Reps   int64 `json:"reps,omitempty"`
	// PlainS and TracedS are the in-process operations' times, without
	// and with the wrappers; operation i of each is one pair.
	PlainS  []float64 `json:"plain_s,omitempty"`
	TracedS []float64 `json:"traced_s,omitempty"`
}

type tail struct {
	Percentile float64 `json:"percentile"`
	WallS      float64 `json:"wall_s"`
	Samples    int     `json:"samples"`
}

// tailOf returns the highest of p99.9, p99 and p90 of xs that has at
// least ten samples beyond it.
func tailOf(xs []float64) *tail {
	for _, p := range []float64{99.9, 99, 90} {
		if v, err := percentile(xs, p); err == nil {
			return &tail{p, v, len(xs)}
		}
	}
	return nil
}

// measure runs one workload: the untraced measurement for dur, or with
// trace one untraced operation (for the programs' /stats and the client
// round trips) and then the in-process pairs of untraced and traced
// operations for dur.
func measure(b *bench, w workload, dur time.Duration, trace bool, log io.Writer) (report, record, error) {
	rec := record{Workload: w.name, Seed: b.seed}
	untraced := newResult()
	fail := func(err error) (report, record, error) {
		if b.ctx.Err() != nil {
			return report{}, rec, b.ctx.Err()
		}
		untraced.problem(err.Error())
		attempted, failed := untraced.counts()
		attempted = max(attempted, 1)
		rec.Report = report{Attempted: attempted, Failed: max(failed, attempted)}
		rec.Report.Metrics = withUnits(endToEnd, nil)
		if trace {
			rec.Report.Metrics = withUnits(perLayer, nil)
		}
		rec.Problem = untraced.first
		fmt.Fprintf(log, "bench: %s: FAILED: %s\n", w.name, rec.Problem)
		return rec.Report, rec, nil
	}
	d, err := w.prepare(b)
	if err != nil {
		return fail(err)
	}
	subprocess := dur
	if trace {
		subprocess = 0
	}
	if err := d.run(subprocess, untraced); err != nil {
		return fail(err)
	}
	attempted, failed := untraced.counts()
	rep := report{Metrics: endToEndMetrics(untraced)}
	rec.WallS = untraced.walls()
	for _, s := range untraced.ops {
		rec.Scale = append(rec.Scale, s.scale)
	}
	rec.SetupS = untraced.setupSeries(func(x scaled) float64 { return x.raw })
	rec.Raw = rawTimes(untraced)
	rec.Notes, rec.Tail = untraced.notes, tailOf(untraced.walls())
	rec.Problem = untraced.first
	fmt.Fprintf(log, "bench: %s: %d operations, %d cells, %d failed\n",
		w.name, len(untraced.ops), attempted, failed)
	printMetrics(log, "  ", rep.Metrics)
	if t := rec.Tail; t != nil {
		fmt.Fprintf(log, "  wall_s p%g of %d operations: %.6g s\n", t.Percentile, t.Samples, t.WallS)
	}
	if trace {
		tr := newTracer()
		traced, plain := newResult(), newResult()
		if err := b.interleave(dur, d, tr, traced, plain); err != nil {
			return fail(err)
		}
		a, f := traced.counts()
		pa, pf := plain.counts()
		attempted, failed = attempted+a+pa, failed+f+pf
		rep.Metrics = layerMetrics(tr, untraced, traced, plain, runtime.GOMAXPROCS(0))
		rec.Visits, rec.Reps = tr.visits.Load(), tr.nreps.Load()
		rec.PlainS, rec.TracedS = plain.walls(), traced.walls()
		for _, r := range []*result{plain, traced} {
			if rec.Problem == "" {
				rec.Problem = r.first
			}
		}
		fmt.Fprintf(log, "bench: %s in-process: %d untraced and %d traced operations, %d cells, %d failed, %d replications, %d visits\n",
			w.name, len(plain.ops), len(traced.ops), a+pa, f+pf, rec.Reps, rec.Visits)
		printMetrics(log, "  ", rep.Metrics)
		if err := tr.write(filepath.Join(b.h.out, w.name+".trace.json")); err != nil {
			return report{}, rec, err
		}
	}
	if rec.Problem != "" {
		fmt.Fprintf(log, "bench: %s: first problem: %s\n", w.name, rec.Problem)
	}
	rep.Attempted, rep.Failed = max(attempted, 1), failed
	rep.Correct = failed == 0 && attempted > 0
	rec.Report = rep
	return rep, rec, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: all, %s)", name, strings.Join(workloadNames(), ", "))
}

// buildDir is where build state lives: the Go build cache, the built
// CLIs and temporary files. It is $CARGO_TARGET_DIR when set (relative
// to the repository root), else .bench_build; bench/run.sh picks the
// same directory.
func buildDir(root string) string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if filepath.IsAbs(dir) {
		return dir
	}
	return filepath.Join(root, dir)
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory whose go.mod declares module tctp.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module tctp\n") {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("run from the repository root: no go.mod of module tctp here or above")
}

// env identifies the machine and the code a result was measured on.
type env struct {
	Nproc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func environment(root string) env {
	e := env{Nproc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	// Only a checkout that is itself a git repository has a commit; never
	// look above it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
			e.Commit = b
		}
	}
	return e
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
