// Command tctp-experiments regenerates the paper's evaluation: every
// figure (Fig. 7–10), the §V energy study, and the design ablations.
// Each experiment is a declarative sweep executed by internal/sweep,
// so cells and replications share one worker pool.
//
// Usage:
//
//	tctp-experiments -list
//	tctp-experiments -run fig7
//	tctp-experiments -run all -seeds 20 -progress
//	tctp-experiments -run fig8 -seeds 5 -out fig8.csv -format csv
//	tctp-experiments -run fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
//	tctp-experiments -run fig8 -trace trace.out
//
// -cpuprofile and -memprofile write runtime/pprof CPU and allocation
// profiles of the experiments to their own files, and -trace a
// runtime/trace execution trace (see internal/profile); the results
// are unchanged by them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tctp/internal/experiment"
	"tctp/internal/profile"
	"tctp/internal/sweep"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered experiments and exit")
		run      = flag.String("run", "all", "experiment name, or 'all'")
		seeds    = flag.Int("seeds", 20, "replications per data point (paper: 20)")
		base     = flag.Uint64("base-seed", 0, "base replication seed")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		out      = flag.String("out", "", "write results to this file instead of stdout")
		format   = flag.String("format", "text", "output format: text, csv, json")
		progress = flag.Bool("progress", false, "report sweep progress on stderr")
		ckptDir  = flag.String("checkpoint", "", "checkpoint directory: sweeps persist fold state here and an interrupted rerun resumes")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the experiments to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (runtime/pprof) of the experiments to this file")
		traceF   = flag.String("trace", "", "write an execution trace (runtime/trace) of the experiments to this file")
	)
	flag.Parse()

	if *list {
		for _, name := range experiment.Names() {
			fmt.Println(name)
		}
		return
	}

	f, err := experiment.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tctp-experiments:", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tctp-experiments:", err)
			os.Exit(1)
		}
		defer file.Close()
		w = file
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tctp-experiments:", err)
			os.Exit(1)
		}
	}
	params := experiment.Params{
		Seeds: *seeds, BaseSeed: *base, Workers: *workers, Checkpoint: *ckptDir,
	}
	names := []string{*run}
	if *run == "all" {
		if f != experiment.FormatText {
			// Concatenating heterogeneous CSV/JSON documents on one
			// stream would be unparseable; machine formats need one
			// experiment per invocation.
			fmt.Fprintln(os.Stderr,
				"tctp-experiments: -format csv/json requires a single -run experiment")
			os.Exit(1)
		}
		names = experiment.Names()
	}

	stop, err := profile.Start(*cpuProf, *memProf, *traceF)
	if err == nil {
		err = runAll(names, params, w, f, *progress, os.Stderr)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tctp-experiments:", err)
		os.Exit(1)
	}
}

// runAll executes the named experiments in order. In text format each
// result gets a header and a timing footer; machine formats (csv,
// json) stay clean of decoration so the output pipes straight into
// other tools.
func runAll(names []string, params experiment.Params, w io.Writer,
	f experiment.Format, progress bool, errw io.Writer) error {
	for _, name := range names {
		// The in-place progress line is terminated once the experiment
		// returns, not at RunsDone == RunsTotal: an experiment may run
		// several sweeps, and under adaptive replication the total is a
		// ceiling early-stopped cells never reach.
		progressed := false
		if progress {
			name := name
			params.Progress = func(p sweep.Progress) {
				progressed = true
				fmt.Fprintf(errw, "\r%s: cells %d/%d runs %d/%d",
					name, p.CellsDone, p.CellsTotal, p.RunsDone, p.RunsTotal)
			}
		}
		start := time.Now()
		if f == experiment.FormatText {
			fmt.Fprintf(w, "### %s (%d replications)\n", name, params.Seeds)
		}
		err := experiment.RunFormat(name, params, w, f)
		if progressed {
			fmt.Fprintln(errw)
		}
		if err != nil {
			return err
		}
		if f == experiment.FormatText {
			fmt.Fprintf(w, "[%s took %s]\n%s\n", name,
				time.Since(start).Round(time.Millisecond), strings.Repeat("-", 60))
		}
	}
	return nil
}
