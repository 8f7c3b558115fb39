package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// summary is one metric over the runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
	Values []float64 `json:"values"`
}

type setResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Raw are the same runs' times without the host-load scaling.
	Raw map[string]summary `json:"raw"`
}

func summarize(unit string, v []float64) summary {
	q1, q2, q3 := quartiles(v)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, Spread: finite((q3 - q1) / q2), Values: v}
}

type baselineSet struct {
	Seeds     []uint64              `json:"seeds"`
	Workloads map[string]*setResult `json:"workloads"`
}

// baselineFile is a committed baseline: sets of untraced runs of every
// workload and one traced run each. Claim is always null: a baseline
// measures, it claims no gain.
type baselineFile struct {
	Env        env                           `json:"env"`
	RunSeconds float64                       `json:"run_seconds"`
	Runs       int                           `json:"runs_per_set"`
	Sets       []baselineSet                 `json:"sets"`
	Drift      map[string]map[string]float64 `json:"drift"` // last set's median over the first's, minus 1
	RawDrift   map[string]map[string]float64 `json:"raw_drift"`
	Trace      map[string]map[string]metric  `json:"trace"`
	Claim      *string                       `json:"claim"`
}

// A baseline is two sets of ten runs of every workload: a benchmark is
// steady when, for every metric, the spread within each set and the
// drift of the second set's median from the first's stay within the
// metric's bound.
const (
	baselineSets = 2
	baselineRuns = 10
)

// baselineSeed is the seed of run i (from 0) of a baseline. Seeds 1000
// apart share no replication, so the spreads include the inputs'
// variation, as with any other seeds.
func baselineSeed(i int) uint64 { return uint64(1000 * (i + 1)) }

// benchmarkFile is the part of BENCHMARK.json the baseline checks
// against.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// writeBaseline measures every workload baselineRuns times, each with
// another seed, in each of baselineSets sets, plus one traced run per
// workload, by running this program once per run from the repository
// root. It writes the summary to path and prints each metric's spread
// and drift next to its bound from BENCHMARK.json.
func writeBaseline(ctx context.Context, root, path string, seconds float64, log io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(log, "bench:", err)
		return 2
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintln(log, "bench: BENCHMARK.json:", err)
			return 2
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	out := baselineFile{
		Env: environment(root), RunSeconds: seconds, Runs: baselineRuns,
		Drift: map[string]map[string]float64{}, RawDrift: map[string]map[string]float64{},
		Trace: map[string]map[string]metric{},
	}
	// Each child writes its record, which holds the unscaled times, here.
	recDir := filepath.Join(buildDir(root), "tmp", "baseline")
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		fmt.Fprintln(log, "bench:", err)
		return 2
	}
	defer os.RemoveAll(recDir)
	code := 0
	for si := 0; si < baselineSets; si++ {
		set := baselineSet{Workloads: map[string]*setResult{}}
		for ri := 0; ri < baselineRuns; ri++ {
			set.Seeds = append(set.Seeds, baselineSeed(si*baselineRuns+ri))
		}
		for _, w := range workloads {
			sr := &setResult{Metrics: map[string]summary{}, Raw: map[string]summary{}}
			values, raw := map[string][]float64{}, map[string][]float64{}
			for _, seed := range set.Seeds {
				rep, err := runChild(ctx, self, root, recDir, w.name, seed, seconds, 0)
				var rec record
				if err == nil {
					err = readJSON(filepath.Join(recDir, w.name+".json"), &rec)
				}
				if err != nil {
					fmt.Fprintf(log, "bench: %s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				if !rep.Correct {
					code = 1
				}
				sr.Attempted += rep.Attempted
				sr.Failed += rep.Failed
				for n, m := range rep.Metrics {
					values[n] = append(values[n], m.Value)
				}
				for n, v := range rec.Raw {
					raw[n] = append(raw[n], v)
				}
				fmt.Fprintf(log, "bench: set %d %s seed %d: wall_s %.4g (raw %.4g) cpu_s %.4g (raw %.4g) setup_s %.4g\n",
					si+1, w.name, seed, rep.Metrics["wall_s"].Value, rec.Raw["wall_s"],
					rep.Metrics["cpu_s"].Value, rec.Raw["cpu_s"], rep.Metrics["setup_s"].Value)
			}
			for _, d := range endToEnd {
				sr.Metrics[d.name] = summarize(d.unit, values[d.name])
				if v, ok := raw[d.name]; ok {
					sr.Raw[d.name] = summarize(d.unit, v)
				}
			}
			set.Workloads[w.name] = sr
		}
		out.Sets = append(out.Sets, set)
	}
	for _, w := range workloads {
		rep, err := runChild(ctx, self, root, recDir, w.name, baselineSeed(0), seconds, 1)
		if err != nil {
			fmt.Fprintf(log, "bench: %s traced: %v\n", w.name, err)
			return 2
		}
		if !rep.Correct {
			code = 1
		}
		out.Trace[w.name] = rep.Metrics
	}

	first, last := out.Sets[0], out.Sets[len(out.Sets)-1]
	fmt.Fprintf(log, "%-13s %-12s %10s %7s %7s %6s  %s\n", "workload", "metric", "median", "spread", "drift", "bound", "unscaled spread, drift")
	for _, w := range workloads {
		out.Drift[w.name] = map[string]float64{}
		out.RawDrift[w.name] = map[string]float64{}
		for _, d := range endToEnd {
			a, b := first.Workloads[w.name].Metrics[d.name], last.Workloads[w.name].Metrics[d.name]
			drift := finite(b.Median/a.Median - 1)
			out.Drift[w.name][d.name] = drift
			unscaled := ""
			if ra, ok := first.Workloads[w.name].Raw[d.name]; ok {
				rb := last.Workloads[w.name].Raw[d.name]
				out.RawDrift[w.name][d.name] = finite(rb.Median/ra.Median - 1)
				unscaled = fmt.Sprintf("  %.3f %+.3f", max(ra.Spread, rb.Spread), out.RawDrift[w.name][d.name])
			}
			spread := max(a.Spread, b.Spread)
			bound := bounds[d.name]
			worse := drift
			if d.better == "higher" {
				worse = -drift
			}
			flag := ""
			if (d.name != "setup_s" && spread > bound) || worse > bound {
				flag = "  OUT OF BOUND"
			} else if spread > bound/3 {
				flag = "  spread above a third of the bound"
			}
			fmt.Fprintf(log, "%-13s %-12s %10.4g %7.3f %+7.3f %6.2f %s%s\n",
				w.name, d.name, a.Median, spread, drift, bound, unscaled, flag)
		}
	}
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(log, "bench:", err)
		return 2
	}
	return code
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// runChild runs one measurement as a separate process, with its records
// in out, and returns the report on its last line of output.
func runChild(ctx context.Context, self, root, out, workload string, seed uint64, seconds float64, trace int) (report, error) {
	var rep report
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	if uerr := json.Unmarshal([]byte(last), &rep); uerr != nil {
		if err == nil {
			err = uerr
		}
		return rep, fmt.Errorf("%v: %s", err, strings.TrimSpace(lastLine(stderr.String())))
	}
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return rep, err
	}
	return rep, nil
}

// gitOutput runs git in dir and returns its trimmed output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	b, err := cmd.Output()
	return strings.TrimSpace(string(b)), err
}
