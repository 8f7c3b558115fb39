package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tctp/internal/stats"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
)

// stopSpec is ckptSpec under an adaptive rule that stops the B-TCTP
// cells (zero-variance quantized SD) at MinReps = 3 and lets the
// Random cells fold to the ceiling of 6.
func stopSpec() Spec {
	spec := ckptSpec()
	spec.Adaptive = &Adaptive{Metric: "steady_sd", RelCI: 0.05, MinReps: 3}
	return spec
}

// forgeStop returns a copy of st marked adaptively stopped after next
// replications, its scalar sample counts matching and no vector
// position above them, so that only the stop itself can be wrong.
func forgeStop(st protocol.FoldState, next int) protocol.FoldState {
	st.Scalars = append(st.Scalars[:0:0], st.Scalars...)
	for i := range st.Scalars {
		st.Scalars[i].N = next
	}
	st.Vectors = append(st.Vectors[:0:0], st.Vectors...)
	for i := range st.Vectors {
		st.Vectors[i] = append(st.Vectors[i][:0:0], st.Vectors[i]...)
		for k := range st.Vectors[i] {
			st.Vectors[i][k].N = min(st.Vectors[i][k].N, next)
		}
	}
	st.Next, st.Stopped, st.Reason = next, true, "forged"
	return st
}

// TestCheckStateRefusesImpossibleStops: the engine consults the
// adaptive rule only from MinReps folded replications on and never
// stops a cell folded to MaxReps, so a state claiming such a stop is
// refused, while the engine's own stop at MinReps passes.
func TestCheckStateRefusesImpossibleStops(t *testing.T) {
	j, err := Plan(stopSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.ComputeCell(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stopped || st.Next != 3 {
		t.Fatalf("B-TCTP cell: stopped %v after %d replications, want a stop at MinReps 3", st.Stopped, st.Next)
	}
	sp := &j.spec
	if err := sp.checkState(&st, true); err != nil {
		t.Fatalf("the engine's own stop is refused: %v", err)
	}
	for _, next := range []int{1, 2, 6} {
		forged := forgeStop(st, next)
		for _, final := range []bool{false, true} {
			err := sp.checkState(&forged, final)
			if err == nil || !strings.Contains(err.Error(), "the rule stops only in [3, 6)") {
				t.Errorf("stop after %d replications (final %v): err = %v", next, final, err)
			}
		}
	}
}

// forgeVectorCounts returns a copy of st whose first vector's leading
// positions claim the given sample counts, everything else untouched.
func forgeVectorCounts(st protocol.FoldState, counts ...int) protocol.FoldState {
	vec := append(st.Vectors[0][:0:0], st.Vectors[0]...)
	for k, n := range counts {
		vec[k].N = n
	}
	st.Vectors = append([][]stats.AccumulatorState{vec}, st.Vectors[1:]...)
	return st
}

// TestCheckStateRefusesImpossibleVectorCounts: a replication reaches
// each vector position at most once, so a position claiming a negative
// sample count or more samples than the counter is refused, final or
// not; the engine's own state passes.
func TestCheckStateRefusesImpossibleVectorCounts(t *testing.T) {
	j, err := Plan(ckptSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.ComputeCell(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := &j.spec
	if err := sp.checkState(&st, true); err != nil {
		t.Fatalf("the engine's own state is refused: %v", err)
	}
	for _, n := range []int{-3, st.Next + 1, 1_000_000} {
		forged := forgeVectorCounts(st, st.Vectors[0][0].N, n)
		want := fmt.Sprintf("vector 0 position 1 folded %d samples", n)
		for _, final := range []bool{false, true} {
			if err := sp.checkState(&forged, final); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("count %d (final %v): err = %v", n, final, err)
			}
		}
	}
}

// Probe and Put make mapStore a dispatch.Store as well.
func (s *mapStore) Probe(key string) (protocol.FoldState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	return st, ok
}

func (s *mapStore) Put(key string, st protocol.FoldState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = st
}

// TestDispatchRefusesImpossibleStop: a worker result claiming a stop
// after one replication is refused by the spec's validation, counted
// in RefusedResults, and the cell is leased again; the genuine result
// that follows is accepted and resolves the cell.
func TestDispatchRefusesImpossibleStop(t *testing.T) {
	testDispatchRefuses(t, stopSpec(), "adaptively stopped after 1 replications",
		func(genuine protocol.FoldState) protocol.FoldState { return forgeStop(genuine, 1) })
}

// TestDispatchRefusesImpossibleVectorCount: a worker result whose
// vector positions claim more samples than the counter, or a negative
// count, is refused and the cell leased again.
func TestDispatchRefusesImpossibleVectorCount(t *testing.T) {
	testDispatchRefuses(t, ckptSpec(), "vector 0 position 0 folded 1000000 samples",
		func(genuine protocol.FoldState) protocol.FoldState {
			return forgeVectorCounts(genuine, 1_000_000, -3)
		})
}

// testDispatchRefuses leases cell 0 of spec twice: the first result,
// forge of the genuine state, must be refused with an error containing
// want and counted in RefusedResults; the genuine result that follows
// must be accepted and resolve the cell.
func testDispatchRefuses(t *testing.T, spec Spec, want string, forge func(protocol.FoldState) protocol.FoldState) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := j.CellKeys()
	genuine, err := j.ComputeCell(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dispatch.New(dispatch.Options{Store: newMapStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	sp := &j.spec
	cell := dispatch.Cell{Sweep: spec.Name, Index: 0, Key: keys[0],
		Validate: func(st *protocol.FoldState) error { return sp.checkState(st, true) }}
	type outcome struct {
		st  protocol.FoldState
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, _, err := sched.Resolve(ctx, cell)
		done <- outcome{st, err}
	}()

	lease := func() *protocol.CellLease {
		l, err := sched.Lease(ctx, "w1")
		if err != nil || l == nil {
			t.Fatalf("lease: %v, %v", l, err)
		}
		if l.Key != keys[0] {
			t.Fatalf("leased %s, want %s", l.Key, keys[0])
		}
		return l
	}
	l := lease()
	forged := forge(genuine)
	if ack := sched.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &forged}); ack.Accepted ||
		!strings.Contains(ack.Error, want) {
		t.Fatalf("the forged result was not refused with %q: %+v", want, ack)
	}
	if st := sched.Stats(); st.RefusedResults != 1 || st.RemoteComputed != 0 {
		t.Fatalf("after the forged result: stats %+v", st)
	}
	l = lease() // requeued
	if ack := sched.Complete(protocol.FoldResult{Lease: l.ID, Key: l.Key, State: &genuine}); !ack.Accepted {
		t.Fatalf("the genuine result was refused: %+v", ack)
	}
	got := <-done
	if got.err != nil || got.st.Next != genuine.Next || got.st.Stopped != genuine.Stopped {
		t.Fatalf("resolved %+v, %v; want the genuine state", got.st, got.err)
	}
	if st := sched.Stats(); st.RefusedResults != 1 || st.RemoteComputed != 1 {
		t.Fatalf("after the genuine result: stats %+v", st)
	}
}

// TestResumeRefusesImpossibleStop: a checkpoint cut back to a cell's
// record after next replications, that record hand-edited to claim a
// stop, is refused on resume: after one replication (a B-TCTP cell's
// first record) or at the ceiling (a Random cell's last).
func TestResumeRefusesImpossibleStop(t *testing.T) {
	spec := stopSpec()
	spec.Workers = 1 // every replication advances the fold by one record
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := j.Run(context.Background(), RunOpts{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, tc := range []struct {
		name string
		cell int
		next int
	}{
		{"one replication", 0, 1},
		{"at the ceiling", 2, 6},
	} {
		forged := []string{lines[0]}
		found := false
		for _, line := range lines[1:] {
			var rec checkpointRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Cell == tc.cell && rec.Next > tc.next {
				continue
			}
			if rec.Cell == tc.cell && rec.Next == tc.next {
				found = true
				rec.Stopped, rec.Reason = true, "forged"
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				line = string(b)
			}
			forged = append(forged, line)
		}
		if !found {
			t.Fatalf("%s: no record of cell %d after %d replications", tc.name, tc.cell, tc.next)
		}
		fpath := filepath.Join(t.TempDir(), "forged.jsonl")
		if err := os.WriteFile(fpath, []byte(strings.Join(forged, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := j.Run(context.Background(), RunOpts{Checkpoint: fpath, Resume: true})
		if err == nil || !strings.Contains(err.Error(), "the rule stops only in [3, 6)") {
			t.Fatalf("%s: resume err = %v", tc.name, err)
		}
	}
}
