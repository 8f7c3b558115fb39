package sweep

// The cache-backed execution path. RunCached is Job.Run with a
// content-addressed memo in front of every cell: each cell's fold is
// obtained by folding through a CellStore keyed by Job.CellKey — a
// store hit restores the cell's bit-exact fold state instead of
// simulating its replications, a miss computes the cell as a
// single-cell job (exactly the replications, seeds, and fold order an
// uncached run would use) and publishes the resulting state, and a
// concurrent computation of the same cell elsewhere is joined rather
// than repeated (single-flight, when the store provides it). Because
// the stored state is the same bit-exact record the checkpoint layer
// persists, and the engine restores and emits it exactly as it does a
// resumed checkpoint or a merged shard, a run served entirely from the
// cache produces sink output byte-identical to a cold run.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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
	// validated centrally, whatever the resolver did.
	Resolve func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error)
	// Parallel bounds how many cells are resolved concurrently
	// (default GOMAXPROCS). Cells that miss additionally parallelize
	// their replications over Spec.Workers inside the compute, so the
	// effective concurrency of an all-miss run is up to
	// Parallel × Workers; callers scheduling many jobs onto shared
	// hardware should gate the computes instead (see
	// cache.Store's compute gate).
	Parallel int
	// Sinks receive the job's cells in enumeration order once every
	// cell has resolved.
	Sinks []Sink
	// OnCell, when non-nil, is called once per cell as it resolves,
	// in completion order (not enumeration order), possibly from
	// several goroutines at once.
	OnCell func(CellUpdate)
}

// computeCell runs the job's i-th cell as a single-cell job — the
// same seeds, seed-ordered fold, and adaptive stop decisions the cell
// would see inside any larger run of the same spec (the shard-
// equivalence guarantee of the job API, narrowed to one cell) — and
// returns its final fold state.
func (j *Job) computeCell(ctx context.Context, i int) (protocol.FoldState, error) {
	sub := *j
	sub.defs = j.defs[i : i+1]
	sub.offset = j.offset + i
	p, err := sub.run(ctx, RunOpts{}, true, nil)
	if err != nil {
		return protocol.FoldState{}, err
	}
	rec, ok := p.records[0]
	if !ok {
		return protocol.FoldState{}, fmt.Errorf("sweep: cell %v produced no fold record", j.defs[i].point)
	}
	return rec.FoldState, nil
}

// ComputeCell computes the job's i-th cell (job-local index) as a
// single-cell sub-job and returns its final fold state — the exported
// face of the compute path RunCached uses on a cache miss. It is what
// a remote worker runs for a leased cell: same seeds, same seed-ordered
// fold, same adaptive stop decisions as the cell would see inside any
// larger run of the same spec, so the returned state is bit-identical
// to the one a local run would hold and restores byte-identically
// through the shared emission path.
func (j *Job) ComputeCell(ctx context.Context, i int) (protocol.FoldState, error) {
	if i < 0 || i >= len(j.defs) {
		return protocol.FoldState{}, fmt.Errorf("sweep: cell %d outside [0,%d)", i, len(j.defs))
	}
	return j.computeCell(ctx, i)
}

// RunCached executes the job with every cell folded through the
// store, then hands the validated states to the engine as restored
// finished cells, which streams them to the sinks in enumeration order.
// The output is byte-identical to Job.Run of the same job at any mix
// of hits, misses, and joins — including a fully cold store (every
// cell computed) and a fully warm one (no simulation at all). Cells
// resolve concurrently (bounded by Parallel); on error the
// lowest-indexed failing cell wins, matching the engine's
// deterministic error selection.
func (j *Job) RunCached(ctx context.Context, opts CacheRunOpts) (*Result, error) {
	if opts.Store == nil && opts.Resolve == nil {
		return nil, fmt.Errorf("sweep: RunCached needs a Store or a Resolve hook")
	}
	keys, err := j.CellKeys()
	if err != nil {
		return nil, err
	}
	sp := &j.spec
	n := len(j.defs)
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}

	restored := make(map[int]checkpointRecord, n)
	validate := func(st *protocol.FoldState) error { return sp.checkState(st, true) }
	var (
		mu       sync.Mutex
		runErr   error
		errIndex int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if runErr == nil || i < errIndex {
			runErr, errIndex = err, i
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return runErr != nil
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed() {
					continue
				}
				compute := func() (protocol.FoldState, error) {
					return j.computeCell(ctx, i)
				}
				var (
					st  protocol.FoldState
					src protocol.Source
					err error
				)
				if opts.Resolve != nil {
					st, src, err = opts.Resolve(ctx, ResolveCell{
						Index:    j.offset + i,
						Key:      keys[i],
						Compute:  compute,
						Validate: validate,
					})
				} else {
					st, src, err = opts.Store.Fold(keys[i], compute)
				}
				if err == nil {
					if verr := validate(&st); verr != nil {
						err = fmt.Errorf("sweep: cached state %s %v", keys[i], verr)
					}
				}
				if err != nil {
					fail(i, err)
					continue
				}
				mu.Lock()
				restored[i] = checkpointRecord{Cell: i, FoldState: st}
				mu.Unlock()
				if opts.OnCell != nil {
					c := sp.newCollector()
					c.restore(checkpointRecord{Cell: i, FoldState: st})
					opts.OnCell(CellUpdate{
						Index:  j.offset + i,
						Key:    keys[i],
						Source: src,
						Result: finalizeCell(sp, j.offset+i, j.defs[i].point, c),
					})
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := j.run(ctx, RunOpts{Sinks: opts.Sinks}, false, restored)
	if err != nil {
		return nil, err
	}
	return p.Result(), nil
}
