// Package experiment regenerates the paper's evaluation (§V): one
// runner per figure plus the energy study the text describes, and the
// ablations listed in DESIGN.md. Every experiment follows the paper's
// protocol — "each simulation result is obtained from the average
// results of 20 simulations" — by declaring a sweep.Spec and running
// it through the internal/sweep engine, which parallelizes cells ×
// replications across CPU cores; results are bit-identical regardless
// of worker count because each replication derives its randomness from
// its own seed and aggregation folds in seed order.
package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"tctp/internal/sweep"
)

// Params are the protocol-level knobs shared by all experiments.
type Params struct {
	// Seeds is the number of replications (default 20, per §5.1).
	Seeds int
	// BaseSeed offsets the replication seeds so whole experiments can
	// be re-randomized reproducibly.
	BaseSeed uint64
	// Workers caps the parallel simulations (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives the engine's progress snapshots
	// (cmd/tctp-experiments wires it to -progress).
	Progress func(sweep.Progress)
	// Checkpoint, when non-empty, is a directory where every sweep an
	// experiment runs persists its fold state (one <spec-name>.ckpt
	// file each). A rerun of an interrupted experiment resumes at the
	// last completed replication instead of starting over
	// (cmd/tctp-experiments wires it to -checkpoint).
	Checkpoint string
}

// spec seeds a sweep.Spec with the protocol knobs; runners fill in the
// axes and metrics.
func (p Params) spec(name string) sweep.Spec {
	return sweep.Spec{
		Name:     name,
		Seeds:    p.Seeds,
		BaseSeed: p.BaseSeed,
		Workers:  p.Workers,
		Progress: p.Progress,
	}
}

func (p Params) withDefaults() Params {
	if p.Seeds == 0 {
		p.Seeds = 20
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// run plans the spec and runs it through the sweep engine, applying
// the Params' checkpoint policy: with a checkpoint directory, the
// sweep checkpoints to <dir>/<spec-name>.ckpt and resumes from an
// existing file — so rerunning a killed experiment command picks up
// where it stopped.
func (p Params) run(spec sweep.Spec) (*sweep.Result, error) {
	var opts sweep.RunOpts
	if p.Checkpoint != "" {
		if spec.Name == "" {
			return nil, fmt.Errorf("experiment: checkpointed sweep needs a spec name")
		}
		opts.Checkpoint = filepath.Join(p.Checkpoint, spec.Name+".ckpt")
		_, err := os.Stat(opts.Checkpoint)
		opts.Resume = err == nil
	}
	j, err := sweep.Plan(spec)
	if err != nil {
		return nil, err
	}
	part, err := j.Run(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	return part.Result(), nil
}
