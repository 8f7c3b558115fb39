package sweep

// The cache-backed execution path. RunCached is Job.Run with a
// content-addressed memo in front of every cell: each cell's fold is
// obtained by folding through a CellStore keyed by Job.CellKey — a
// store hit restores the cell's bit-exact fold state instead of
// simulating its replications, a miss computes the cell as a
// single-cell job (exactly the replications, seeds, and fold order an
// uncached run would use) and publishes the resulting state, and a
// concurrent computation of the same cell elsewhere is joined rather
// than repeated (single-flight, when the store provides it). Each
// cell is one job in the engine's own pool — Spec.Workers wide, or as
// wide as the job when a Resolve hook waits on a worker fleet: the job
// resolves the cell, and the engine restores the validated state as a
// finished cell and streams it to the sinks in enumeration order, the
// path a resumed checkpoint or a merged shard takes. Because the
// stored state is the same bit-exact record the checkpoint layer
// persists, a run served entirely from the cache produces sink output
// byte-identical to a cold run.

import (
	"context"
	"fmt"

	"tctp/internal/sweep/protocol"
)

// CellStore is the cache contract RunCached folds through. Fold
// returns the fold state stored under key, computing and storing it
// via compute on a miss. Implementations are expected to be safe for
// concurrent use and SHOULD single-flight concurrent Folds of the same
// key — internal/sweep/cache.Store does both; a trivial
// non-deduplicating map also satisfies the interface.
//
// The returned Source says how the state was obtained (computed,
// cache hit, or joined onto another caller's in-flight computation).
// When compute fails, Fold must return its error and must not store
// anything under the key.
type CellStore interface {
	Fold(key string, compute func() (protocol.FoldState, error)) (protocol.FoldState, protocol.Source, error)
}

// CellUpdate is the progress record handed to CacheRunOpts.OnCell
// after each cell of a cached run resolves.
type CellUpdate struct {
	// Index is the plan-global cell index; Key the cell's
	// content-addressed cache key.
	Index  int
	Key    string
	Source protocol.Source
	// Result is the cell's finalized aggregate.
	Result *CellResult
}

// ResolveCell is one cell handed to CacheRunOpts.Resolve: its identity
// plus the closures a resolver needs to compute it locally or to
// validate a state obtained elsewhere.
type ResolveCell struct {
	// Index is the plan-global cell index; Key the cell's
	// content-addressed cache key.
	Index int
	Key   string
	// Compute runs the cell as a single-cell sub-job in this process
	// (the same closure a CellStore.Fold miss would run).
	Compute func() (protocol.FoldState, error)
	// Validate checks a fold state obtained outside this process (a
	// cache layer, a remote worker) against the job's spec: accumulator
	// shapes, replication counts, adaptive-stop consistency. Resolvers
	// that accept third-party states should validate before trusting
	// them — a refused state beats a poisoned aggregate.
	Validate func(*protocol.FoldState) error
}

// CacheRunOpts configures one Job.RunCached.
type CacheRunOpts struct {
	// Store is the cell cache (required unless Resolve is set).
	Store CellStore
	// Resolve, when non-nil, replaces Store.Fold as the per-cell
	// resolution: it receives each cell (with its compute and validate
	// closures) and returns the cell's fold state, how it was obtained,
	// and any error. This is the seam the dispatch scheduler plugs into
	// — probing the shared cache, leasing cold cells to remote workers,
	// and falling back however it chooses — while emission stays on the
	// engine's shared byte-identical path. The returned state is still
	// validated centrally, whatever the resolver did. Resolving is
	// taken to be waiting, not computing: every cell's resolve is in
	// flight at once, so a resolver that computes locally must bound
	// its own concurrency. When a cell fails, the resolves of the cells
	// after it are cancelled through their contexts.
	Resolve func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error)
	// Sinks receive the job's cells in enumeration order as they
	// resolve: cell i as soon as cells 0..i have.
	Sinks []Sink
	// OnCell, when non-nil, is called once per cell as it resolves,
	// in completion order (not enumeration order), possibly from
	// several goroutines at once.
	OnCell func(CellUpdate)
}

// ComputeCell computes the job's i-th cell (job-local index) as a
// single-cell sub-job and returns its final fold state: the compute
// path of a RunCached cache miss, and what a remote worker runs for a
// leased cell. The sub-job sees the same seeds, seed-ordered fold, and
// adaptive stop decisions as the cell would inside any larger run of
// the same spec (the shard-equivalence guarantee of the job API,
// narrowed to one cell), so the returned state is bit-identical to the
// one a local run would hold and restores byte-identically through the
// shared emission path.
func (j *Job) ComputeCell(ctx context.Context, i int) (protocol.FoldState, error) {
	if i < 0 || i >= len(j.defs) {
		return protocol.FoldState{}, fmt.Errorf("sweep: cell %d outside [0,%d)", i, len(j.defs))
	}
	sub := *j
	sub.defs = j.defs[i : i+1]
	sub.offset = j.offset + i
	// The sub-job's totals are not the caller's: a cached run reports
	// progress once, when it settles the cell.
	sub.spec.Progress = nil
	p, err := sub.run(ctx, RunOpts{}, nil, nil)
	if err != nil {
		return protocol.FoldState{}, err
	}
	return p.records[0].FoldState, nil
}

// cachedCells is what RunCached hands the engine in place of live
// replications: resolve returns job-local cell i's validated final
// fold state and how it was obtained, and onCell, when non-nil, sees
// each settled cell's finished result.
type cachedCells struct {
	resolve func(ctx context.Context, i int) (protocol.FoldState, protocol.Source, error)
	onCell  func(i int, src protocol.Source, cr *CellResult)
	// waits marks a resolve that waits on an outside party (the
	// Resolve hook) rather than computing: the engine then resolves
	// every cell at once, and cancels later cells' resolves when a
	// cell fails.
	waits bool
}

// RunCached executes the job with every cell folded through the
// store (or the Resolve hook) and restored as a finished cell. The
// output is byte-identical to Job.Run of the same job at any mix of
// hits, misses, and joins — including a fully cold store (every cell
// computed) and a fully warm one (no simulation at all). Cells resolve
// as jobs of the engine's pool — Spec.Workers at a time through the
// Store, every cell at once through a Resolve hook — dispatched in
// enumeration order, and reach the sinks in enumeration order as they
// resolve. Cells that miss the Store additionally parallelize their
// replications over Spec.Workers inside the compute, so the effective
// concurrency of an all-miss run is up to Workers × Workers; callers
// scheduling many jobs onto shared hardware should gate the computes
// instead (see cache.Store's compute gate). Spec.Progress sees the
// job's totals once per settled cell. On error the lowest-indexed
// failing cell wins, by the engine's (cell, replication) rule; like
// Job.Run, a failed run may leave the cells before the failure in its
// sinks.
func (j *Job) RunCached(ctx context.Context, opts CacheRunOpts) (*Result, error) {
	resolve := opts.Resolve
	if resolve == nil {
		if opts.Store == nil {
			return nil, fmt.Errorf("sweep: RunCached needs a Store or a Resolve hook")
		}
		resolve = func(_ context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error) {
			return opts.Store.Fold(cell.Key, cell.Compute)
		}
	}
	keys := j.CellKeys()
	validate := func(st *protocol.FoldState) error { return j.spec.checkState(st, true) }
	cached := &cachedCells{
		waits: opts.Resolve != nil,
		resolve: func(ctx context.Context, i int) (protocol.FoldState, protocol.Source, error) {
			st, src, err := resolve(ctx, ResolveCell{
				Index:    j.offset + i,
				Key:      keys[i],
				Compute:  func() (protocol.FoldState, error) { return j.ComputeCell(ctx, i) },
				Validate: validate,
			})
			if err == nil {
				if verr := validate(&st); verr != nil {
					err = fmt.Errorf("sweep: cached state %s %v", keys[i], verr)
				}
			}
			return st, src, err
		},
	}
	if opts.OnCell != nil {
		cached.onCell = func(i int, src protocol.Source, cr *CellResult) {
			opts.OnCell(CellUpdate{Index: j.offset + i, Key: keys[i], Source: src, Result: cr})
		}
	}
	p, err := j.run(ctx, RunOpts{Sinks: opts.Sinks}, nil, cached)
	if err != nil {
		return nil, err
	}
	return p.Result(), nil
}
