package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tctp/internal/scenario"
	"tctp/internal/sweep/protocol"
	"tctp/internal/wsn"
)

// mapStore is the simplest possible CellStore: a locked map, no
// single-flight, no eviction. It exists to test RunCached's contract
// independently of the real cache package.
type mapStore struct {
	mu sync.Mutex
	m  map[string]protocol.FoldState
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]protocol.FoldState)} }

func (s *mapStore) Fold(key string, compute func() (protocol.FoldState, error)) (protocol.FoldState, protocol.Source, error) {
	s.mu.Lock()
	st, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		return st, protocol.SourceHit, nil
	}
	st, err := compute()
	if err != nil {
		return protocol.FoldState{}, protocol.SourceComputed, err
	}
	s.mu.Lock()
	s.m[key] = st
	s.mu.Unlock()
	return st, protocol.SourceComputed, nil
}

func sinkBytes(t *testing.T, run func(sinks ...Sink) error) (csv, jsonl []byte) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := run(CSV(&cb), JSONL(&jb)); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestRunCachedByteIdentity is the core cache guarantee: a cold cached
// run, a fully warm cached run, and a plain uncached Run all produce
// byte-identical CSV and JSONL.
func TestRunCachedByteIdentity(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec()

	plainCSV, plainJSONL := sinkBytes(t, func(sinks ...Sink) error {
		_, err := Run(ctx, spec, sinks...)
		return err
	})

	store := newMapStore()
	cached := func(wantSource protocol.Source) (csv, jsonl []byte) {
		j, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		sources := map[protocol.Source]int{}
		csv, jsonl = sinkBytes(t, func(sinks ...Sink) error {
			_, err := j.RunCached(ctx, CacheRunOpts{
				Store: store,
				Sinks: sinks,
				OnCell: func(u CellUpdate) {
					mu.Lock()
					sources[u.Source]++
					mu.Unlock()
					if u.Result == nil || !protocol.ValidKey(u.Key) {
						t.Errorf("cell %d: bad update %+v", u.Index, u)
					}
				},
			})
			return err
		})
		if sources[wantSource] != j.Cells() || len(sources) != 1 {
			t.Fatalf("want %d cells all %q, got %v", j.Cells(), wantSource, sources)
		}
		return csv, jsonl
	}

	coldCSV, coldJSONL := cached(protocol.SourceComputed)
	warmCSV, warmJSONL := cached(protocol.SourceHit)

	if !bytes.Equal(plainCSV, coldCSV) || !bytes.Equal(plainJSONL, coldJSONL) {
		t.Fatal("cold cached run differs from plain Run")
	}
	if !bytes.Equal(plainCSV, warmCSV) || !bytes.Equal(plainJSONL, warmJSONL) {
		t.Fatal("warm cached run differs from plain Run")
	}
}

// TestRunCachedCrossSweepSharing: a different grid that crosses through
// some of the same cells hits the cache for exactly those cells —
// cell identity is independent of the enumerating sweep.
func TestRunCachedCrossSweepSharing(t *testing.T) {
	ctx := context.Background()
	store := newMapStore()

	first := tinySpec() // targets {6, 8} × 2 algorithms
	j1, err := Plan(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.RunCached(ctx, CacheRunOpts{Store: store}); err != nil {
		t.Fatal(err)
	}

	second := tinySpec()
	second.Name = "other-sweep" // must not affect cell identity
	second.Targets = []int{8, 10}
	j2, err := Plan(second)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	sources := map[protocol.Source]int{}
	if _, err := j2.RunCached(ctx, CacheRunOpts{
		Store: store,
		OnCell: func(u CellUpdate) {
			mu.Lock()
			sources[u.Source]++
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	// targets=8 under each of the two algorithms overlaps; targets=10
	// is new.
	if sources[protocol.SourceHit] != 2 || sources[protocol.SourceComputed] != 2 {
		t.Fatalf("want 2 hits + 2 computed, got %v", sources)
	}
}

// TestCellKeySensitivity pins what is — and is not — part of a cell's
// content-addressed identity.
func TestCellKeySensitivity(t *testing.T) {
	key := func(mutate func(*Spec)) string {
		spec := tinySpec()
		if mutate != nil {
			mutate(&spec)
		}
		j, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		k, err := j.CellKey(0)
		if err != nil {
			t.Fatal(err)
		}
		if !protocol.ValidKey(k) {
			t.Fatalf("malformed key %q", k)
		}
		return k
	}

	base := key(nil)
	if key(nil) != base {
		t.Fatal("cell key is not deterministic")
	}

	// Identity must ignore the grid around the cell and the sweep's
	// name/worker knobs...
	same := map[string]func(*Spec){
		"sweep name":    func(s *Spec) { s.Name = "renamed" },
		"extra cells":   func(s *Spec) { s.Targets = []int{6, 8, 10, 12} },
		"worker count":  func(s *Spec) { s.Workers = 3 },
		"progress hook": func(s *Spec) { s.Progress = func(Progress) {} },
	}
	for what, mutate := range same {
		if key(mutate) != base {
			t.Errorf("%s changed the cell key; it must not", what)
		}
	}

	// ...and react to everything that changes the cell's numbers.
	differ := map[string]func(*Spec){
		"point":       func(s *Spec) { s.Targets = []int{7, 8} },
		"seeds":       func(s *Spec) { s.Seeds = 4 },
		"base seed":   func(s *Spec) { s.BaseSeed = 99 },
		"metric set":  func(s *Spec) { s.Metrics = s.Metrics[:2] },
		"adaptive":    func(s *Spec) { s.Adaptive = &Adaptive{Metric: "avg_dcdt_s", MinReps: 2, RelCI: 0.5} },
		"cfg digest":  func(s *Spec) { s.ConfigDigest = "deadbeef" },
		"workload on": func(s *Spec) { s.Workloads = []scenario.Workload{packetsWorkload()} },
	}
	for what, mutate := range differ {
		if key(mutate) == base {
			t.Errorf("%s did not change the cell key; it must", what)
		}
	}

	// Two workloads sharing a name but differing in configuration must
	// hash apart — the name alone is not the identity.
	wl := func(gen float64) func(*Spec) {
		return func(s *Spec) {
			s.Workloads = []scenario.Workload{{Name: "w", Data: wsn.Config{
				GenInterval: gen, BufferCap: 50, Deadline: 3600,
			}}}
		}
	}
	if key(wl(60)) == key(wl(30)) {
		t.Error("workload config change behind an unchanged name did not change the cell key")
	}
}

// TestRunCachedRejectsForeignState: a store returning state whose shape
// does not match the spec (wrong accumulator count, short fold) is
// refused with an error naming the key, not folded into output.
func TestRunCachedRejectsForeignState(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec()

	// Warm a store, then replay it against a spec with fewer metrics:
	// every key differs, so nothing matches — but force a collision by
	// rewriting the second job's state under its own keys with the
	// first job's (3-metric) states.
	store := newMapStore()
	j1, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.RunCached(ctx, CacheRunOpts{Store: store}); err != nil {
		t.Fatal(err)
	}

	narrow := tinySpec()
	narrow.Metrics = narrow.Metrics[:1]
	j2, err := Plan(narrow)
	if err != nil {
		t.Fatal(err)
	}
	keys2, err := j2.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	keys1, err := j1.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	for i := range keys2 {
		store.m[keys2[i]] = store.m[keys1[i]] // corrupt: foreign shape under the right key
	}
	store.mu.Unlock()

	_, err = j2.RunCached(ctx, CacheRunOpts{Store: store})
	if err == nil {
		t.Fatal("foreign cached state was accepted")
	}
	if !strings.Contains(err.Error(), keys2[0]) || !strings.Contains(err.Error(), "scalar") {
		t.Fatalf("error should name the key and the shape problem, got: %v", err)
	}
}

// TestRunCachedLowestFailingCellWins: when several cells fail, the
// lowest-indexed failure is the run's error at any concurrency. Every
// cell of an eight-cell job fails at once, so a worker that received a
// low cell just as a higher one failed must still resolve it rather
// than skip it. GOMAXPROCS is raised so several workers race for
// cells, and the run repeats so an unlucky interleaving cannot hide.
func TestRunCachedLowestFailingCellWins(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	spec := tinySpec()
	spec.Targets = []int{4, 5, 6, 7}
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Cells() != 8 {
		t.Fatalf("%d cells, want 8", j.Cells())
	}
	resolve := func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error) {
		return protocol.FoldState{}, "", fmt.Errorf("cell-%d failed", cell.Index)
	}
	for run := 0; run < 1000; run++ {
		_, err := j.RunCached(context.Background(), CacheRunOpts{Resolve: resolve})
		if err == nil || err.Error() != "cell-0 failed" {
			t.Fatalf("run %d: error %v, want cell-0's", run, err)
		}
	}
}

// TestRunCachedResolveHook pins the dispatch seam: a run resolved
// through CacheRunOpts.Resolve — computing via the cell's own Compute
// closure, as a remote worker would — is byte-identical to a plain
// Run, the hook sees every cell exactly once with a valid key, and a
// resolver returning a tampered state is refused by the central
// validation.
func TestRunCachedResolveHook(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec()

	plainCSV, plainJSONL := sinkBytes(t, func(sinks ...Sink) error {
		_, err := Run(ctx, spec, sinks...)
		return err
	})

	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]int{}
	csv, jsonl := sinkBytes(t, func(sinks ...Sink) error {
		_, err := j.RunCached(ctx, CacheRunOpts{
			Resolve: func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error) {
				if !protocol.ValidKey(cell.Key) {
					t.Errorf("cell %d: malformed key %q", cell.Index, cell.Key)
				}
				st, err := cell.Compute()
				if err != nil {
					return st, "", err
				}
				if verr := cell.Validate(&st); verr != nil {
					t.Errorf("cell %d: own compute fails validation: %v", cell.Index, verr)
				}
				mu.Lock()
				seen[cell.Key]++
				mu.Unlock()
				return st, protocol.Source("worker:test"), nil
			},
			Sinks: sinks,
		})
		return err
	})
	if !bytes.Equal(csv, plainCSV) || !bytes.Equal(jsonl, plainJSONL) {
		t.Fatal("resolve-hook run differs from plain Run")
	}
	if len(seen) != j.Cells() {
		t.Fatalf("resolver saw %d distinct cells, want %d", len(seen), j.Cells())
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s resolved %d times", key, n)
		}
	}

	// A resolver that hands back a truncated state must be refused by
	// the run's central validation, naming the cell's key.
	j2, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := j2.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	_, err = j2.RunCached(ctx, CacheRunOpts{
		Resolve: func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error) {
			st, err := cell.Compute()
			if err != nil {
				return st, "", err
			}
			st.Scalars = st.Scalars[:1] // tamper: drop metrics
			return st, protocol.Source("worker:evil"), nil
		},
	})
	if err == nil {
		t.Fatal("tampered resolver state was accepted")
	}
	if !strings.Contains(err.Error(), keys[0]) {
		t.Fatalf("error should name the cell key, got: %v", err)
	}
}

// TestRunCachedProgress: Spec.Progress sees the job's totals once per
// settled cell, on a cold run (every cell computed by a sub-job that
// reports nothing of its own) and on a warm one alike.
func TestRunCachedProgress(t *testing.T) {
	spec := tinySpec()
	var (
		mu    sync.Mutex
		calls []Progress
	)
	spec.Progress = func(p Progress) {
		mu.Lock()
		calls = append(calls, p)
		mu.Unlock()
	}
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	for _, run := range []string{"cold", "warm"} {
		calls = nil
		if _, err := j.RunCached(context.Background(), CacheRunOpts{Store: store}); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 4 {
			t.Fatalf("%s run: %d progress calls %v, want one per cell", run, len(calls), calls)
		}
		for i, p := range calls {
			want := Progress{CellsDone: i + 1, CellsTotal: 4, RunsDone: 3 * (i + 1), RunsTotal: 12}
			if p != want {
				t.Fatalf("%s run: call %d = %+v, want %+v", run, i, p, want)
			}
		}
	}
}

// orderSink records the cell indices it receives and closes first on
// cell 0.
type orderSink struct {
	first chan struct{}
	cells []int
}

func (s *orderSink) Begin(*Spec, int) error { return nil }
func (s *orderSink) End(*Result) error      { return nil }
func (s *orderSink) Cell(c *CellResult) error {
	if c.Index == 0 {
		close(s.first)
	}
	s.cells = append(s.cells, c.Index)
	return nil
}

// TestRunCachedStreamsInOrder: a cached run streams each cell to the
// sinks as soon as every cell before it has resolved, rather than after
// the whole job: the last cell's resolver waits until a sink has
// received cell 0.
func TestRunCachedStreamsInOrder(t *testing.T) {
	j, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	last := j.Cells() - 1
	sink := &orderSink{first: make(chan struct{})}
	_, err = j.RunCached(context.Background(), CacheRunOpts{
		Resolve: func(ctx context.Context, cell ResolveCell) (protocol.FoldState, protocol.Source, error) {
			if cell.Index == last {
				select {
				case <-sink.first:
				case <-time.After(5 * time.Second):
					return protocol.FoldState{}, "", fmt.Errorf("no sink saw cell 0 before cell %d resolved", last)
				}
			}
			st, err := cell.Compute()
			return st, protocol.SourceComputed, err
		},
		Sinks: []Sink{sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(sink.cells, want) {
		t.Fatalf("sink saw cells %v, want %v", sink.cells, want)
	}
}
