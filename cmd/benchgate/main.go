// Command benchgate is the CI perf-regression gate: it parses two
// `go test -bench` outputs (base and head), compares every benchmark's
// time/op and allocs/op with the repository's own streaming statistics
// (internal/stats), and fails when a gated benchmark regressed —
// a statistically significant time/op increase beyond the threshold,
// or any allocs/op increase at all (allocation counts are
// deterministic, so even +1 is a real regression).
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 5x -count 6 ./... > head.txt
//	git checkout main && go test ... > base.txt
//	benchgate -base base.txt -head head.txt -gate '^BenchmarkEngine' -json BENCH_engine.json
//
// Significance uses non-overlapping 95% confidence intervals of the
// per-run means: a regression counts only when the head's CI95 lower
// bound clears the base's CI95 upper bound AND the mean delta exceeds
// -threshold (default 15%). CI also runs benchstat over the same files
// for the human-readable table; benchgate is the pass/fail decision.
//
// Without -base, benchgate only summarizes the head run (used on
// pushes to main, where there is no merge base to compare against);
// the -json artifact is written either way, the start of a BENCH_*
// trajectory tracked across builds. The artifact carries the
// machine-readable verdict — a top-level "pass" / "fail" /
// "head-only" plus a per-(benchmark, unit) "regression" / "pass" /
// "info" — so bench-history tooling can grade builds without parsing
// exit codes or tables; -json - streams it to stdout instead of a
// file.
//
// The -history subcommand is that tooling: it folds any number of
// BENCH_*.json artifacts (downloaded from successive builds, given as
// arguments in build order) into a per-benchmark time-series table —
// one row per build with the head mean ±CI95, the delta against the
// previous build, and the recorded verdict. It never fails the build;
// it exists to make drift visible between the gate's hard stops. CI
// additionally accumulates the artifacts in an actions/cache
// "bench-history" directory (restore-keys prefix match restores the
// newest previous cache, each build appends its run-numbered copy),
// so the table spans builds without downloading artifacts by hand:
//
//	benchgate -history BENCH_engine_build1.json BENCH_engine_build2.json ...
//
// The -qualitygate mode is the solution-quality twin of the bench
// gate: it compares the `tctp-experiments -run quality` CSV given as
// -head against a committed golden fixture and fails when any
// planner's approximation ratio regressed beyond -quality-tolerance,
// went missing, or dropped below 1.0 (a bound violation). See
// quality.go for the full policy:
//
//	tctp-experiments -run quality -format csv -seeds 5 > head.csv
//	benchgate -qualitygate internal/experiment/testdata/quality_golden.csv -head head.csv
//
// # Gating policy
//
// Two gates run per pull request, split by benchmark family because a
// single threshold cannot fit both:
//
//   - '^BenchmarkEngine' at -threshold 0.15: discrete-event engine
//     microbenchmarks (BenchmarkEngine, BenchmarkEngineCancel). Tight
//     ops with low run-to-run variance; 15% catches real regressions
//     without flaking. They take 2000 iterations per run, because at a
//     handful of iterations one engine step is below the timer's
//     resolution.
//   - '^BenchmarkPlan' at -threshold 0.25: whole planner constructions
//     (tours, clusterings, fleet plans) at n=1000. Bigger working
//     sets make them more sensitive to machine noise on shared CI
//     runners, so their gate is variance-tolerant; the CI95-overlap
//     significance test does the real filtering, the threshold only
//     sets how large a confirmed move must be to fail the build.
//     The same gate takes BenchmarkCellSimulation at n=1000, one
//     whole B-TCTP replication (plan, simulate, record): its
//     allocs/op is a per-run constant only while no mule leg, visit
//     or interval statistic allocates. Planning dominates that
//     benchmark's time, so the gate also takes the two simulation
//     benchmarks, whose allocs/op catch a visit log that regrows:
//     BenchmarkSimulationThroughput (a 20-target, 4-mule B-TCTP run
//     over 50 000 s on one shared circuit, almost all simulation on
//     the event heap), BenchmarkSimulationExclusive (a 10-target,
//     8-mule Sweep over 100 000 s, whose mules share no target and so
//     run ahead of the heap on their own clocks, most of them parked
//     on one target) and BenchmarkSimulationExclusiveRegions (a
//     50-target, 4-mule Sweep over 100 000 s, whose mules run ahead
//     around regions of about 12 stops). It also takes the
//     two service hot paths whose absolute time is the product:
//     BenchmarkCacheHitSweep (a fully warm sweep) and
//     BenchmarkRemoteDispatch (one lease round trip). Their allocs/op
//     moves by one or two between runs of a few iterations, so they
//     run 2000 iterations per run, where it is constant.
//
// A -bench pattern with a '/' level runs no benchmark that lacks
// sub-benchmarks, so CI runs the n=1000 ladders, the 2000-iteration
// set and the three simulation benchmarks in three go test invocations
// and feeds their concatenated output to both gates.
//
// The BenchmarkPlan*Brute twins are deliberately ungated and excluded
// from the replicated runs: they are frozen oracles for the
// equivalence tests, exist to be slow, and only execute in the
// single-iteration rot check (-short skips their n=10k rungs, which
// take minutes by design). Every twin sits in the package that owns
// the function it times: the NearestNeighbor and GreedyEdge twins time
// internal/tour's unexported scan paths, which are still the
// production path below the index threshold, and the KMeans and
// ConvexHullInsertion twins time the test-only oracles in
// internal/cluster and internal/tour. allocs/op is gated with zero
// tolerance in both families — allocation counts are deterministic, so
// any increase is a real regression, which is what keeps the
// zero-alloc planning paths zero-alloc.
//
// The same twin idiom extends beyond the Brute oracles. The sweep
// service's cache benchmarks (internal/sweep/cache:
// BenchmarkCacheHitSweep vs BenchmarkCacheHitSweepCold for the
// warm-over-cold ratio, BenchmarkCacheDedup vs
// BenchmarkCacheDedupNoShare for the single-flight collapse) and the
// planner batching pair in the root package (BenchmarkPlanCHBAssign
// vs BenchmarkPlanCHBAssignPerMule) each carry their baseline as a
// sibling benchmark, so the claimed speedups (≥50× cache hit, ~1×
// compute under N duplicate submissions, ~2.3× batched CHB assignment
// at n=10k) are re-measurable from any single run's output.
// BenchmarkPlanCHBAssign joins the '^BenchmarkPlan' gate at n=1000;
// its PerMule twin and the cold and no-share cache twins stay ungated
// as frozen baselines. BenchmarkCacheDedup runs with the gated set but
// stays ungated: it measures a wall-clock collapse ratio of eight
// concurrent sweeps, dominated by scheduler behavior on shared runners.
// All of them still execute in the rot check so they cannot decay
// silently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tctp/internal/stats"
)

func main() {
	var (
		basePath  = flag.String("base", "", "base `go test -bench` output (omit to only summarize -head)")
		headPath  = flag.String("head", "", "head `go test -bench` output (required)")
		gate      = flag.String("gate", "^BenchmarkEngine", "regexp of benchmark names the gate applies to")
		threshold = flag.Float64("threshold", 0.15, "relative time/op regression that fails the gate")
		jsonOut   = flag.String("json", "", `write the machine-readable comparison verdict to this file ("-" = stdout)`)
		history   = flag.Bool("history", false, "fold the BENCH_*.json artifacts given as arguments into a per-benchmark time-series table (never fails)")
		qGolden   = flag.String("qualitygate", "", "quality-gate mode: compare the -head quality-study CSV against this golden fixture CSV instead of benchmarks")
		qTol      = flag.Float64("quality-tolerance", 0.02, "relative approximation-ratio regression the quality gate tolerates")
	)
	flag.Parse()
	if *history {
		if err := runHistory(flag.Args(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		return
	}
	if *qGolden != "" {
		if err := runQualityGate(*qGolden, *headPath, *qTol, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*basePath, *headPath, *gate, *threshold, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// parseBench extracts metric samples from `go test -bench` output.
// Benchmark lines look like:
//
//	BenchmarkEngine-8   1000000   1052 ns/op   16 B/op   1 allocs/op
//
// Repeated -count runs of the same benchmark append to one sample.
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", sc.Text(), fields[i])
			}
			unit := fields[i+1]
			if out[name] == nil {
				out[name] = make(map[string][]float64)
			}
			out[name][unit] = append(out[name][unit], v)
		}
	}
	return out, sc.Err()
}

// comparison is one (benchmark, unit) verdict. Verdict is the
// machine-readable judgement: "regression" (gated and regressed),
// "pass" (gated and clean), or "info" (reported but never gating —
// ungated benchmarks and head-only summaries).
type comparison struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Verdict     string  `json:"verdict"`
	BaseN       int     `json:"base_n,omitempty"`
	BaseMean    float64 `json:"base_mean,omitempty"`
	BaseCI95    float64 `json:"base_ci95,omitempty"`
	HeadN       int     `json:"head_n"`
	HeadMean    float64 `json:"head_mean"`
	HeadCI95    float64 `json:"head_ci95"`
	DeltaPct    float64 `json:"delta_pct,omitempty"`
	Significant bool    `json:"significant,omitempty"`
	Gated       bool    `json:"gated"`
	Regression  bool    `json:"regression"`
	Note        string  `json:"note,omitempty"`
}

// gatedUnits are the metrics the gate judges; everything else is
// reported but never fails the build.
var gatedUnits = map[string]bool{"ns/op": true, "allocs/op": true}

// setVerdict derives the machine-readable judgement from the gate
// flags; call it once the Gated/Regression fields are final.
func (c *comparison) setVerdict() {
	switch {
	case c.Regression:
		c.Verdict = "regression"
	case c.Gated:
		c.Verdict = "pass"
	default:
		c.Verdict = "info"
	}
}

func summarize(vals []float64) (mean, ci95 float64) {
	var acc stats.Accumulator
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Mean(), acc.CI95()
}

// compare judges head against base. A gated benchmark missing from
// head is itself a regression — deleting the benchmark must not dodge
// the gate.
func compare(base, head map[string]map[string][]float64, gateRe *regexp.Regexp, threshold float64) ([]comparison, bool) {
	var out []comparison
	failed := false
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gated := gateRe.MatchString(name)
		units := make([]string, 0, len(base[name]))
		for unit := range base[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		if head[name] == nil {
			c := comparison{
				Name: name, Gated: gated, Regression: gated,
				Note: "benchmark missing from head run",
			}
			c.setVerdict()
			out = append(out, c)
			failed = failed || gated
			continue
		}
		for _, unit := range units {
			bm, bci := summarize(base[name][unit])
			hv, ok := head[name][unit]
			if !ok {
				// A gated metric that vanished from head (e.g. a dropped
				// b.ReportAllocs()) must not dodge the gate.
				gatedUnit := gated && gatedUnits[unit]
				c := comparison{
					Name: name, Unit: unit,
					BaseN: len(base[name][unit]), BaseMean: bm, BaseCI95: bci,
					Gated: gatedUnit, Regression: gatedUnit,
					Note: "metric missing from head run",
				}
				c.setVerdict()
				out = append(out, c)
				failed = failed || gatedUnit
				continue
			}
			hm, hci := summarize(hv)
			c := comparison{
				Name:  name,
				Unit:  unit,
				BaseN: len(base[name][unit]), BaseMean: bm, BaseCI95: bci,
				HeadN: len(hv), HeadMean: hm, HeadCI95: hci,
				Gated: gated && gatedUnits[unit],
			}
			if bm != 0 {
				c.DeltaPct = 100 * (hm - bm) / bm
			}
			// Non-overlapping CI95s: the conservative "clearly moved"
			// criterion.
			c.Significant = hm-hci > bm+bci || hm+hci < bm-bci
			switch unit {
			case "ns/op":
				c.Regression = c.Gated && c.Significant && hm > bm*(1+threshold)
			case "allocs/op":
				// Allocation counts are deterministic per iteration:
				// any increase of the mean is a real regression.
				c.Regression = c.Gated && hm > bm
			}
			failed = failed || c.Regression
			c.setVerdict()
			out = append(out, c)
		}
	}
	return out, failed
}

// headOnly summarizes a head run without a base to compare against.
func headOnly(head map[string]map[string][]float64, gateRe *regexp.Regexp) []comparison {
	var names []string
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []comparison
	for _, name := range names {
		var units []string
		for unit := range head[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			hm, hci := summarize(head[name][unit])
			out = append(out, comparison{
				Name: name, Unit: unit,
				HeadN: len(head[name][unit]), HeadMean: hm, HeadCI95: hci,
				Gated: gateRe.MatchString(name) && gatedUnits[unit],
				// Without a base there is nothing to judge: every row
				// is informational, gated or not.
				Verdict: "info",
			})
		}
	}
	return out
}

// report is the -json artifact schema. Verdict is the machine-readable
// gate outcome: "pass", "fail", or "head-only" when there was no base
// to judge against (Failed stays false then).
type report struct {
	Base       string       `json:"base,omitempty"`
	Head       string       `json:"head"`
	Gate       string       `json:"gate"`
	Threshold  float64      `json:"threshold"`
	Verdict    string       `json:"verdict"`
	Failed     bool         `json:"failed"`
	Benchmarks []comparison `json:"benchmarks"`
}

// runHistory folds -json artifacts from successive builds into a
// per-benchmark time-series table. Files are taken in argument order
// (pass them in build order); the delta column compares each build's
// head mean against the previous one. A benchmark missing from a
// build simply skips that row. History never fails the caller on
// benchmark content — only unreadable files are errors.
func runHistory(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-history needs BENCH_*.json artifact files as arguments")
	}
	type sample struct {
		build   string
		n       int
		mean    float64
		ci95    float64
		verdict string
	}
	series := make(map[string][]sample) // "name unit" → builds in order
	var keys []string
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, c := range rep.Benchmarks {
			if c.Unit == "" || c.HeadN == 0 {
				continue // note-only rows (missing benchmarks) have no head sample
			}
			key := c.Name + " " + c.Unit
			if _, seen := series[key]; !seen {
				keys = append(keys, key)
			}
			series[key] = append(series[key], sample{
				build: path, n: c.HeadN,
				mean: c.HeadMean, ci95: c.HeadCI95,
				verdict: c.Verdict,
			})
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no benchmark samples in %d artifacts", len(paths))
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(w, "== %s ==\n", key)
		prev := 0.0
		for i, s := range series[key] {
			delta := "     —"
			if i > 0 && prev != 0 {
				delta = fmt.Sprintf("%+5.1f%%", 100*(s.mean-prev)/prev)
			}
			fmt.Fprintf(w, "  %-40s %12.2f ±%-10.2f %s  %s\n",
				s.build, s.mean, s.ci95, delta, s.verdict)
			prev = s.mean
		}
	}
	return nil
}

func loadBench(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark results", path)
	}
	return m, nil
}

func run(basePath, headPath, gate string, threshold float64, jsonOut string, w io.Writer) error {
	if headPath == "" {
		return fmt.Errorf("-head is required")
	}
	gateRe, err := regexp.Compile(gate)
	if err != nil {
		return fmt.Errorf("bad -gate regexp: %w", err)
	}
	head, err := loadBench(headPath)
	if err != nil {
		return err
	}

	rep := report{Base: basePath, Head: headPath, Gate: gate, Threshold: threshold}
	if basePath == "" {
		rep.Benchmarks = headOnly(head, gateRe)
		rep.Verdict = "head-only"
	} else {
		base, err := loadBench(basePath)
		if err != nil {
			return err
		}
		rep.Benchmarks, rep.Failed = compare(base, head, gateRe, threshold)
		rep.Verdict = "pass"
		if rep.Failed {
			rep.Verdict = "fail"
		}
	}

	for _, c := range rep.Benchmarks {
		mark := " "
		switch {
		case c.Regression:
			mark = "✗"
		case c.Gated:
			mark = "✓"
		}
		if c.Note != "" {
			fmt.Fprintf(w, "%s %-40s %-10s %s\n", mark, c.Name, c.Unit, c.Note)
			continue
		}
		if basePath == "" {
			fmt.Fprintf(w, "%s %-40s %-10s %12.2f ±%.2f (n=%d)\n",
				mark, c.Name, c.Unit, c.HeadMean, c.HeadCI95, c.HeadN)
			continue
		}
		fmt.Fprintf(w, "%s %-40s %-10s %12.2f ±%.2f → %12.2f ±%.2f  %+6.1f%%\n",
			mark, c.Name, c.Unit, c.BaseMean, c.BaseCI95, c.HeadMean, c.HeadCI95, c.DeltaPct)
	}

	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if jsonOut == "-" {
			// JSON to stdout for pipelines; the table above went there
			// too, so strictly-parsing consumers should prefer a file.
			if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
				return err
			}
		} else if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Failed {
		return fmt.Errorf("performance regression in gated benchmarks (gate %s, threshold %g%%)",
			gate, threshold*100)
	}
	return nil
}
