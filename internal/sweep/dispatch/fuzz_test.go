package dispatch_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
)

// fuzzJob is a four-cell sweep planned once per process: each cell's
// key, its own bit-exact final state, and the job's validator (the
// engine's checkState, as RunCached hands it to a Resolve hook).
var fuzzJob = sync.OnceValues(func() (*fuzzCells, error) {
	spec, err := build.Spec(protocol.SweepRequest{
		Algorithms: "btctp,chb", Targets: "5,6", Mules: "2", Seeds: 2, Horizon: 2_000,
	})
	if err != nil {
		return nil, err
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		return nil, err
	}
	fc := &fuzzCells{fp: job.Fingerprint(), keys: make([]string, job.Cells()), states: make([]protocol.FoldState, job.Cells())}
	_, err = job.RunCached(context.Background(), sweep.CacheRunOpts{
		Resolve: func(_ context.Context, rc sweep.ResolveCell) (protocol.FoldState, protocol.Source, error) {
			st, err := rc.Compute()
			fc.mu.Lock()
			fc.keys[rc.Index], fc.states[rc.Index], fc.validate = rc.Key, st, rc.Validate
			fc.mu.Unlock()
			return st, protocol.SourceComputed, err
		},
	})
	return fc, err
})

type fuzzCells struct {
	mu       sync.Mutex
	fp       string
	keys     []string
	states   []protocol.FoldState
	validate func(*protocol.FoldState) error
}

// putOnce is a Store that never hits and records every Put.
type putOnce struct {
	mu   sync.Mutex
	puts map[string][]protocol.FoldState
}

func (p *putOnce) Probe(string) (protocol.FoldState, bool) { return protocol.FoldState{}, false }
func (p *putOnce) Put(key string, st protocol.FoldState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts[key] = append(p.puts[key], st)
}

// FuzzWorkerResult feeds a fuzzed /workers/result body — one result or
// a chunk, with unknown, repeated or forged leases, keys and states —
// to Complete, with every cell of a real sweep leased. Nothing may
// panic, no lease may fold twice, every state published passes the
// sweep's validation, each entry gets its own ack, and the counters
// account for every entry.
//
// The scheduler grants leases L1–L4 for cells 0–3, so the committed
// corpus (testdata/fuzz/FuzzWorkerResult) refers to them by name: a
// valid chunk, a repeated lease, a forged key, a forged count, a worker
// error, a nested chunk and an unknown lease, each carrying the cells'
// real keys and states.
func FuzzWorkerResult(f *testing.F) {
	fc, err := fuzzJob()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var res protocol.FoldResult
		if json.Unmarshal(body, &res) != nil {
			return
		}
		store := &putOnce{puts: make(map[string][]protocol.FoldState)}
		s, err := dispatch.New(dispatch.Options{Store: store, LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		defer wg.Wait()
		defer cancel()
		for i, key := range fc.keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, _, err := s.Resolve(ctx, dispatch.Cell{
					Sweep: "s1", Index: i, Key: key, Fingerprint: fc.fp, Validate: fc.validate,
				})
				if err == nil && fc.validate(&st) != nil {
					t.Errorf("cell %d resolved to a state that fails validation", i)
				}
			}()
		}
		for s.Stats().Queued < int64(len(fc.keys)) {
			time.Sleep(10 * time.Microsecond)
		}
		for s.Stats().QueueLen > 0 {
			if _, err := s.Lease(ctx, "w1"); err != nil {
				t.Fatal(err)
			}
		}

		ack := s.Complete(res)
		if len(ack.More) != len(res.More) {
			t.Fatalf("%d entries acked for %d posted", len(ack.More), len(res.More))
		}
		nested := 0
		for _, r := range res.More {
			if len(r.More) > 0 {
				nested++
			}
		}
		st := s.Stats()
		folded := int64(0)
		for key, puts := range store.puts {
			if len(puts) != 1 {
				t.Fatalf("cell %s folded %d times", key, len(puts))
			}
			if err := fc.validate(&puts[0]); err != nil {
				t.Fatalf("cell %s published a state that fails validation: %v", key, err)
			}
			folded++
		}
		if st.RemoteComputed != folded {
			t.Fatalf("RemoteComputed %d, %d states published", st.RemoteComputed, folded)
		}
		if got := st.RemoteComputed + st.WorkerErrors + st.StaleResults + st.RefusedResults + int64(nested); got != int64(1+len(res.More)) {
			t.Fatalf("counters %+v account for %d of %d entries", st, got, 1+len(res.More))
		}
	})
}
