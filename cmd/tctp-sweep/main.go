// Command tctp-sweep runs a declarative parameter sweep through the
// internal/sweep engine: any subset of algorithms crossed with target
// counts, fleet sizes (or named heterogeneous fleets), mule speeds,
// placements and data workloads, every cell replicated and aggregated
// with streaming statistics. It is a thin Spec builder — scenario
// construction lives in internal/scenario, the flag-to-Spec
// translation in internal/sweep/build (shared with tctp-server), the
// grid execution, parallelism, and output formats in internal/sweep.
//
// Usage:
//
//	tctp-sweep -alg btctp -targets 10,20,30 -mules 2,4,8 -seeds 10 > sweep.csv
//	tctp-sweep -alg btctp,chb -speeds 1,2,4 -placements uniform,clusters -format json
//	tctp-sweep -alg btctp -fleets "4x2;2x1+2x3" -workloads off,on -format table
//	tctp-sweep -alg btctp -preset clustered -progress
//	tctp-sweep -alg btctp -preset clustered -partition kmeans:4   # C-BTCTP
//	tctp-sweep -alg btctp -workloads bursts -burst-hot 5
//	tctp-sweep -alg btctp -scenario world.json -seeds 20
//	tctp-sweep -alg btctp -seeds 50 -adaptive avg_dcdt_s:0.05
//	tctp-sweep -alg btctp -checkpoint sweep.ckpt          # interrupted?
//	tctp-sweep -alg btctp -checkpoint sweep.ckpt -resume  # …continue
//
//	# Distributed: run shard i of n per machine (same flags everywhere),
//	# then merge the shard checkpoints into the full, byte-identical CSV.
//	tctp-sweep -alg btctp -seeds 50 -shard 1/3 -checkpoint shard1.jsonl
//	tctp-sweep -alg btctp -seeds 50 -shard 2/3 -checkpoint shard2.jsonl
//	tctp-sweep -alg btctp -seeds 50 -shard 3/3 -checkpoint shard3.jsonl
//	tctp-sweep -alg btctp -seeds 50 -merge out.csv shard1.jsonl shard2.jsonl shard3.jsonl
//
//	# Remote: submit the same flags to a tctp-server and fetch the
//	# (byte-identical, possibly cache-served) result.
//	tctp-sweep -alg btctp -preset paper51 -seeds 5 -server http://localhost:8080 > sweep.csv
//
// Long-running sweeps can be checkpointed (-checkpoint) and continued
// after an interruption (-resume) with byte-identical output, and
// -adaptive metric:relci[:min[:max]] stops each cell early once the
// metric's CI95 half-width falls below the relative target. -scenario
// loads a JSON scenario file (the internal/scenario model) supplying
// the field geometry and axis defaults, like -preset but from disk.
//
// -shard i/n runs the i-th of n contiguous deterministic cell ranges
// of the grid; every machine must be given the same sweep flags so the
// plans (and their sha256 fingerprints) agree. A shard's -checkpoint
// file is its mergeable artifact: -merge OUT rebuilds the whole sweep
// from the named shard files, refusing shards whose fingerprint does
// not match the flags, and writes the -format output (byte-identical
// to an unsharded run) to OUT, or to stdout when OUT is "-".
//
// -server URL switches to client mode: the sweep flags are serialized
// as a JSON request (a -scenario file is inlined, so the server never
// reads local paths), submitted to a tctp-server, and the result —
// byte-identical to a local run of the same flags — is written to
// stdout. The server memoizes per-cell results, so repeated or
// overlapping sweeps return mostly or entirely from cache.
//
// Placements are the values accepted by field.ParsePlacement: uniform
// (the paper's §5.1 model), clusters (disconnected discs), grid
// (deterministic lattice), corridor (narrow central band), hotspot
// (one dense disc plus background). Fleets are "COUNTxSPEED[@BATTERY]"
// groups joined by "+", and several fleets separated by ";" form the
// fleet axis, replacing -mules and -speeds.
//
// -partition adds the target-partition axis: "none" keeps the
// algorithm's own single-circuit planning, "method:k[:alloc]" (methods
// kmeans, sectors; alloc length, count) runs the partitioned C-variant
// — B-TCTP cells become C-BTCTP, W-TCTP cells C-WTCTP — and the output
// gains a partition column, a groups metric, and per-group DCDT
// columns (group_dcdt_s_1..k). -workloads bursts layers the
// event-driven Poisson-burst workload (see -burst-*) instead of the
// periodic packet model.
//
// Cells that cannot run (more mules than targets+1, partitioned cells
// of algorithms without a partitioned variant, fewer mules than
// regions) are skipped and reported on stderr.
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof CPU and
// allocation profiles of the whole run to FILE, and -trace FILE a
// runtime/trace execution trace (see internal/profile); the sweep
// output is unchanged by them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/profile"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

func main() {
	var cfg config
	req := &cfg.SweepRequest
	flag.StringVar(&req.Algorithms, "alg", "btctp", "comma-separated algorithms: btctp, wtctp, chb, sweep, random")
	flag.StringVar(&req.Targets, "targets", "", "comma-separated target counts (default 10,20,30,40,50)")
	flag.StringVar(&req.Mules, "mules", "", "comma-separated fleet sizes (default 2,4,6,8)")
	flag.StringVar(&req.Speeds, "speeds", "", "comma-separated mule speeds in m/s (default 2)")
	flag.StringVar(&req.Fleets, "fleets", "", `semicolon-separated fleet specs, e.g. "4x2;2x1+2x3" (replaces -mules and -speeds; combining them is an error)`)
	flag.StringVar(&req.Placements, "placements", "", "comma-separated placements: "+field.PlacementNames+" (default uniform)")
	flag.StringVar(&req.Workloads, "workloads", "", "comma-separated workload axis values: off, on, bursts, priority (default off)")
	flag.Float64Var(&req.WorkloadGen, "workload-gen", 60, "packet generation interval in seconds for -workloads on")
	flag.IntVar(&req.WorkloadBuffer, "workload-buffer", 50, "node buffer capacity in packets for -workloads on")
	flag.Float64Var(&req.WorkloadDeadline, "workload-deadline", 3600, "delivery deadline in seconds for -workloads on and bursts")
	flag.IntVar(&req.BurstHot, "burst-hot", 0, "burst-active targets for -workloads bursts (0 = all)")
	flag.Float64Var(&req.BurstGap, "burst-gap", 1800, "mean seconds between bursts for -workloads bursts")
	flag.IntVar(&req.BurstSize, "burst-size", 10, "packets per burst for -workloads bursts")
	flag.StringVar(&req.Preset, "preset", "", "scenario preset supplying field geometry and axis defaults: "+strings.Join(scenario.PresetNames(), ", "))
	flag.StringVar(&cfg.ScenarioFile, "scenario", "", "JSON scenario file supplying field geometry and axis defaults (like -preset, from disk)")
	flag.IntVar(&req.Seeds, "seeds", 10, "replications per cell")
	flag.Uint64Var(&req.BaseSeed, "base-seed", 0, "base replication seed")
	flag.Float64Var(&req.Horizon, "horizon", 0, "simulated seconds (default 60000)")
	flag.IntVar(&req.Workers, "workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.Format, "format", "csv", "output format: csv, json, table")
	flag.BoolVar(&cfg.Progress, "progress", false, "report progress on stderr")
	flag.StringVar(&cfg.Checkpoint, "checkpoint", "", "persist per-cell fold state to this JSONL file")
	flag.BoolVar(&cfg.Resume, "resume", false, "continue from the -checkpoint file instead of starting over")
	flag.StringVar(&req.Adaptive, "adaptive", "", "adaptive replication as metric:relci[:min[:max]], e.g. avg_dcdt_s:0.05:5:50")
	flag.StringVar(&req.Partition, "partition", "", `comma-separated partition axis values: none or method:k[:alloc], e.g. "none,kmeans:4" (methods kmeans, sectors; alloc length, count)`)
	flag.StringVar(&req.Failures, "failures", "", `comma-separated failure-injection axis values: none or rate[:handoff], e.g. "none,0.5:absorb" (handoffs `+patrol.HandoffNames+`)`)
	flag.StringVar(&req.Handoff, "handoff", "", "default handoff policy for -failures values without their own: "+patrol.HandoffNames)
	flag.StringVar(&cfg.Shard, "shard", "", `run one shard of the grid as "i/n" (1-based), e.g. -shard 2/3`)
	flag.StringVar(&cfg.Merge, "merge", "", `merge the shard checkpoint files given as arguments, writing the full sweep to this path ("-" = stdout)`)
	flag.StringVar(&cfg.Server, "server", "", "submit the sweep to this tctp-server base URL instead of running locally")
	flag.BoolVar(&req.Quality, "quality", false, "add the approximation-ratio columns (ratio_tour, ratio_dcdt) computed against the internal/optimal reference bounds")
	var (
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile (runtime/pprof) of the run to this file")
		traceF  = flag.String("trace", "", "write an execution trace (runtime/trace) of the run to this file")
	)
	flag.Parse()
	cfg.MergeInputs = flag.Args()

	stop, err := profile.Start(*cpuProf, *memProf, *traceF)
	if err == nil {
		err = run(cfg, os.Stdout, os.Stderr)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tctp-sweep:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags: the sweep's own in the embedded
// request — the exact input internal/sweep/build translates into a
// Spec, locally and on a server — and the CLI's beside it. run is kept
// free of globals so tests can drive it. Empty axis strings (and a
// zero horizon) select the defaults — or, with -preset, the preset's
// values.
type config struct {
	protocol.SweepRequest
	ScenarioFile                     string // -scenario, inlined by request
	Format                           string
	Progress, Resume                 bool
	Checkpoint, Shard, Merge, Server string
	MergeInputs                      []string
}

// request is the sweep's protocol request with the -scenario file read
// and inlined, so the document (not a path) travels.
func (cfg config) request() (protocol.SweepRequest, error) {
	req := cfg.SweepRequest
	if cfg.ScenarioFile != "" {
		b, err := os.ReadFile(cfg.ScenarioFile)
		if err != nil {
			return req, fmt.Errorf("scenario file: %w", err)
		}
		req.Scenario = b
	}
	return req, nil
}

// buildSpec translates the CLI flags into a sweep.Spec via the shared
// builder.
func buildSpec(cfg config) (sweep.Spec, error) {
	// On the wire, zero seeds means "the default"; at the CLI the flag
	// default is 10, so an explicit -seeds 0 is a mistake to reject.
	if cfg.Seeds < 1 {
		return sweep.Spec{}, fmt.Errorf("seeds %d < 1", cfg.Seeds)
	}
	req, err := cfg.request()
	if err != nil {
		return sweep.Spec{}, err
	}
	spec, err := build.Spec(req)
	if err != nil && cfg.ScenarioFile != "" {
		// The builder sees only the inlined document; name the file.
		return spec, fmt.Errorf("scenario file %s: %w", cfg.ScenarioFile, err)
	}
	return spec, err
}

// parseShard decodes a 1-based "i/n" shard selector into the job API's
// 0-based index.
func parseShard(s string) (i, n int, err error) {
	lo, hi, ok := strings.Cut(s, "/")
	if ok {
		i, err = strconv.Atoi(strings.TrimSpace(lo))
		if err == nil {
			n, err = strconv.Atoi(strings.TrimSpace(hi))
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("bad shard %q (want i/n, e.g. 2/3)", s)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("shard %d/%d outside 1/%d..%d/%d", i, n, n, n, n)
	}
	return i - 1, n, nil
}

func sink(format string, w io.Writer) (sweep.Sink, error) {
	switch format {
	case "csv":
		return sweep.CSV(w), nil
	case "json":
		return sweep.JSONL(w), nil
	case "table":
		return sweep.TextTable(w), nil
	default:
		return nil, fmt.Errorf("unknown format %q (valid: csv, json, table)", format)
	}
}

func run(cfg config, out, errw io.Writer) error {
	if cfg.Resume && cfg.Checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the file to continue from")
	}
	if cfg.Server != "" {
		if cfg.Checkpoint != "" || cfg.Resume || cfg.Shard != "" || cfg.Merge != "" {
			return fmt.Errorf("-server conflicts with -checkpoint/-resume/-shard/-merge: the server owns execution")
		}
		return runClient(cfg, out, errw)
	}
	spec, err := buildSpec(cfg)
	if err != nil {
		return err
	}
	if cfg.Merge != "" {
		if cfg.Shard != "" || cfg.Checkpoint != "" || cfg.Resume {
			return fmt.Errorf("-merge conflicts with -shard/-checkpoint/-resume: merging only reads finished shard files")
		}
		if len(cfg.MergeInputs) == 0 {
			return fmt.Errorf("-merge needs shard checkpoint files as arguments")
		}
		return runMerge(cfg, spec, out, errw)
	}
	if len(cfg.MergeInputs) != 0 {
		return fmt.Errorf("unexpected arguments %v (shard files are only read with -merge)", cfg.MergeInputs)
	}
	snk, err := sink(cfg.Format, out)
	if err != nil {
		return err
	}

	// The in-place progress line is terminated after the run returns,
	// not at RunsDone == RunsTotal: under adaptive replication the
	// total is a ceiling early-stopped cells never reach.
	progressed := false
	if cfg.Progress {
		spec.Progress = func(p sweep.Progress) {
			progressed = true
			fmt.Fprintf(errw, "\rcells %d/%d runs %d/%d",
				p.CellsDone, p.CellsTotal, p.RunsDone, p.RunsTotal)
		}
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		return err
	}
	if cfg.Shard != "" {
		i, n, err := parseShard(cfg.Shard)
		if err != nil {
			return err
		}
		if job, err = job.Shard(i, n); err != nil {
			return err
		}
		fmt.Fprintf(errw, "tctp-sweep: shard %d/%d: %d of %d cells, plan %s\n",
			i+1, n, job.Cells(), job.TotalCells(), job.Fingerprint())
	}
	partial, err := job.Run(context.Background(), sweep.RunOpts{
		Checkpoint: cfg.Checkpoint,
		Resume:     cfg.Resume,
		Sinks:      []sweep.Sink{snk},
	})
	if progressed {
		fmt.Fprintln(errw)
	}
	if err != nil {
		return err
	}
	report(partial.Result(), errw)
	return nil
}

// runClient submits the sweep to a tctp-server and copies the result —
// byte-identical to a local run of the same flags — to out.
func runClient(cfg config, out, errw io.Writer) error {
	var resultPath string
	switch cfg.Format {
	case "csv":
		resultPath = "result.csv"
	case "json":
		resultPath = "result.jsonl"
	default:
		return fmt.Errorf("format %q is not available with -server (valid: csv, json)", cfg.Format)
	}
	req, err := cfg.request()
	if err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	base := strings.TrimRight(cfg.Server, "/")

	resp, err := http.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit to %s: %w", cfg.Server, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("server is at capacity (retry after %ss): %s",
				resp.Header.Get("Retry-After"), strings.TrimSpace(string(msg)))
		}
		return fmt.Errorf("submit rejected (%s): %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var sub protocol.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("bad submit response: %w", err)
	}
	fmt.Fprintf(errw, "tctp-sweep: submitted %s: %d cells, plan %s\n",
		sub.ID, sub.Cells, sub.Fingerprint)

	if cfg.Progress {
		if err := streamEvents(base, sub.ID, errw); err != nil {
			return err
		}
	}

	res, err := http.Get(base + "/sweeps/" + sub.ID + "/" + resultPath)
	if err != nil {
		return fmt.Errorf("fetch result: %w", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 4<<10))
		return fmt.Errorf("sweep failed (%s): %s", res.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(out, res.Body)
	return err
}

// streamEvents follows the sweep's NDJSON event stream, rendering the
// same in-place progress line a local -progress run prints, plus each
// cell's cache source tally at the end.
func streamEvents(base, id string, errw io.Writer) error {
	resp, err := http.Get(base + "/sweeps/" + id + "/events")
	if err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("event stream (%s): %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	dec := json.NewDecoder(resp.Body)
	cells := 0
	source := map[protocol.Source]int{}
	progressed := false
	for {
		var ev protocol.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("event stream: %w", err)
		}
		switch ev.Type {
		case "cell":
			cells++
			source[ev.Source]++
			progressed = true
			fmt.Fprintf(errw, "\rcells %d", cells)
		case "done":
			if progressed {
				fmt.Fprintln(errw)
			}
			fmt.Fprintf(errw, "tctp-sweep: %s done: %d cells (%d runs), %s\n",
				id, ev.Cells, ev.Runs, sourceSummary(source))
			return nil
		case "error":
			if progressed {
				fmt.Fprintln(errw)
			}
			return fmt.Errorf("sweep %s failed: %s", id, ev.Error)
		}
	}
	return nil
}

// sourceSummary renders the cell-source tally of a server run:
// in-process computes as "local", cache hits as "cached", joins as
// "joined", and — when the server runs a worker fleet — one
// "worker:<id>" count per worker, sorted by id.
func sourceSummary(source map[protocol.Source]int) string {
	parts := []string{
		fmt.Sprintf("%d local", source[protocol.SourceComputed]),
		fmt.Sprintf("%d cached", source[protocol.SourceHit]),
		fmt.Sprintf("%d joined", source[protocol.SourceJoined]),
	}
	var workers []string
	for src := range source {
		if strings.HasPrefix(string(src), "worker:") {
			workers = append(workers, string(src))
		}
	}
	sort.Strings(workers)
	for _, w := range workers {
		parts = append(parts, fmt.Sprintf("%d %s", source[protocol.Source(w)], w))
	}
	return strings.Join(parts, ", ")
}

// runMerge rebuilds the full sweep from shard checkpoint files and
// writes it through the selected sink to cfg.Merge ("-" = out).
func runMerge(cfg config, spec sweep.Spec, out, errw io.Writer) error {
	partials := make([]*sweep.Partial, len(cfg.MergeInputs))
	for i, path := range cfg.MergeInputs {
		p, err := sweep.LoadPartial(path)
		if err != nil {
			return err
		}
		partials[i] = p
	}
	// Merge into memory first: a refused shard set (fingerprint
	// mismatch, missing cell, overlap) must not truncate a previously
	// good output file.
	w := out
	var buf bytes.Buffer
	if cfg.Merge != "-" {
		w = &buf
	}
	snk, err := sink(cfg.Format, w)
	if err != nil {
		return err
	}
	res, err := sweep.Merge(spec, partials, snk)
	if err != nil {
		return err
	}
	if cfg.Merge != "-" {
		if err := os.WriteFile(cfg.Merge, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(errw, "tctp-sweep: merged %d shard files into %d cells (%d runs)\n",
		len(partials), len(res.Cells), res.Runs)
	report(res, errw)
	return nil
}

// report surfaces skipped and early-stopped cells on stderr.
func report(res *sweep.Result, errw io.Writer) {
	for _, sk := range res.Skipped {
		fmt.Fprintf(errw, "tctp-sweep: skipped cell %v: %s\n", sk.Point, sk.Reason)
	}
	if len(res.Skipped) > 0 {
		fmt.Fprintf(errw, "tctp-sweep: %d cells run, %d skipped\n",
			len(res.Cells), len(res.Skipped))
	}
	for _, st := range res.Stopped {
		fmt.Fprintf(errw, "tctp-sweep: stopped cell %v early after %d reps: %s\n",
			st.Point, st.Reps, st.Reason)
	}
}
