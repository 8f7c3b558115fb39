package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// adaptiveCkptSpec is the shard-merge workload: multi-axis (two
// algorithms × two target counts), scalar and vector metrics, and
// adaptive replication — the btctp cells stop at MinReps, the random
// cells run to the cap, so merged output must reproduce heterogeneous
// per-cell replication counts.
func adaptiveCkptSpec() Spec {
	spec := ckptSpec()
	spec.Adaptive = &Adaptive{Metric: "steady_sd", RelCI: 0.05, MinReps: 3}
	return spec
}

// TestShardMergeByteIdentical is the acceptance test of the job API:
// for a multi-axis spec with adaptive replication, merging n = 1, 2, 5
// shards — one of them killed mid-flight and resumed — produces CSV
// and JSONL sink output byte-identical to an unsharded Run, and a
// merge under a mutated spec is refused on the fingerprint.
func TestShardMergeByteIdentical(t *testing.T) {
	spec := adaptiveCkptSpec()
	want, wantRes := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return Run(context.Background(), spec, sinks...)
	})

	for _, n := range []int{1, 2, 5} {
		job, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Kill (and later resume) the last non-empty shard.
		kill := -1
		for i := 0; i < n; i++ {
			s, err := job.Shard(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if s.Cells() > 0 {
				kill = i
			}
		}
		dir := t.TempDir()
		partials := make([]*Partial, n)
		for i := 0; i < n; i++ {
			path := filepath.Join(dir, "shard.jsonl")
			shard, err := job.Shard(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if i == kill {
				// A single worker keeps replications undispatched when
				// the cancellation lands, so the shard is (almost
				// always) genuinely interrupted; if the race lets it
				// finish, the resume below still exercises a finished
				// checkpoint.
				killedSpec := spec
				killedSpec.Workers = 1
				ctx, cancel := context.WithCancel(context.Background())
				killedSpec.Progress = func(p Progress) {
					if p.RunsDone >= 1 {
						cancel()
					}
				}
				killedJob, err := Plan(killedSpec)
				if err != nil {
					t.Fatal(err)
				}
				killedShard, err := killedJob.Shard(i, n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := killedShard.Run(ctx, RunOpts{Checkpoint: path}); err != nil &&
					!errors.Is(err, context.Canceled) {
					t.Fatalf("killed shard %d/%d: %v", i, n, err)
				}
				if partials[i], err = shard.Run(context.Background(),
					RunOpts{Checkpoint: path, Resume: true}); err != nil {
					t.Fatalf("resume shard %d/%d: %v", i, n, err)
				}
			} else {
				p, err := shard.Run(context.Background(), RunOpts{Checkpoint: path})
				if err != nil {
					t.Fatalf("shard %d/%d: %v", i, n, err)
				}
				// Odd shards merge from their checkpoint file — the
				// distributed transport — instead of the in-memory
				// partial.
				if i%2 == 0 {
					partials[i] = p
				} else if partials[i], err = LoadPartial(path); err != nil {
					t.Fatalf("load shard %d/%d: %v", i, n, err)
				}
			}
			os.Remove(path)
		}

		var buf bytes.Buffer
		res, err := Merge(spec, partials, CSV(&buf), JSONL(&buf))
		if err != nil {
			t.Fatalf("merge %d shards: %v", n, err)
		}
		if buf.String() != want {
			t.Fatalf("merged output of %d shards differs from unsharded run:\n--- merged ---\n%s--- want ---\n%s",
				n, buf.String(), want)
		}
		if res.Runs != wantRes.Runs || len(res.Cells) != len(wantRes.Cells) {
			t.Fatalf("merged result: %d runs / %d cells, want %d / %d",
				res.Runs, len(res.Cells), wantRes.Runs, len(wantRes.Cells))
		}

		// A spec with any structural difference plans a different
		// fingerprint: merging the same partials under it is refused.
		mutated := spec
		mutated.BaseSeed = 99
		if _, err := Merge(mutated, partials); err == nil ||
			!strings.Contains(err.Error(), "refusing to merge") {
			t.Fatalf("mutated-spec merge: err = %v, want fingerprint refusal", err)
		}
	}
}

func TestShardRanges(t *testing.T) {
	job, err := Plan(ckptSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells() != 4 || job.TotalCells() != 4 || job.Fingerprint() == "" {
		t.Fatalf("plan: cells=%d total=%d fp=%q", job.Cells(), job.TotalCells(), job.Fingerprint())
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		covered := 0
		for i := 0; i < n; i++ {
			s, err := job.Shard(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if s.offset != covered {
				t.Fatalf("n=%d shard %d starts at %d, want contiguous %d", n, i, s.offset, covered)
			}
			if s.Fingerprint() != job.Fingerprint() {
				t.Fatalf("n=%d shard %d changed the fingerprint", n, i)
			}
			covered += s.Cells()
		}
		if covered != job.Cells() {
			t.Fatalf("n=%d shards cover %d of %d cells", n, covered, job.Cells())
		}
	}
	shard, err := job.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Shard(0, 2); err == nil {
		t.Fatal("sharding a shard accepted")
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}, {0, -1}} {
		if _, err := job.Shard(bad[0], bad[1]); err == nil {
			t.Fatalf("Shard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// A shard's own sink output carries plan-global cell indices, so its
// rows are the corresponding rows of an unsharded run.
func TestShardGlobalIndices(t *testing.T) {
	job, err := Plan(ckptSpec())
	if err != nil {
		t.Fatal(err)
	}
	shard, err := job.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.Run(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Result()
	if len(res.Cells) != 2 || res.Cells[0].Index != 2 || res.Cells[1].Index != 3 {
		t.Fatalf("shard 1/2 cells %+v, want global indices 2 and 3", res.Cells)
	}
	if i, n := p.Shard(); i != 1 || n != 2 || p.Cells() != 2 {
		t.Fatalf("partial coordinates %d/%d × %d", i, n, p.Cells())
	}
}

// An empty shard (more shards than cells) runs as a no-op and merges
// cleanly; its checkpoint is a bare header.
func TestEmptyShard(t *testing.T) {
	spec := ckptSpec()
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := job.Shard(0, 5) // 4 cells over 5 shards: shard 0 is empty
	if err != nil {
		t.Fatal(err)
	}
	if empty.Cells() != 0 {
		t.Fatalf("shard 0/5 has %d cells", empty.Cells())
	}
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	p, err := empty.Run(context.Background(), RunOpts{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Result().Cells) != 0 {
		t.Fatalf("empty shard produced %d cells", len(p.Result().Cells))
	}
	if _, err := LoadPartial(path); err != nil {
		t.Fatalf("empty shard checkpoint unreadable: %v", err)
	}
}

func TestMergeRefusals(t *testing.T) {
	spec := ckptSpec()
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Partial, 2)
	for i := range parts {
		shard, err := job.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = shard.Run(context.Background(), RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	refuse := func(name, wantErr string, partials ...*Partial) {
		t.Helper()
		if _, err := Merge(spec, partials); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
	refuse("no partials", "no partials")
	refuse("nil partial", "is nil", parts[0], nil)
	refuse("missing shard", "missing from the partials", parts[0])
	refuse("overlapping shards", "overlapping shards", parts[0], parts[0], parts[1])

	// A shard killed mid-flight and never resumed is refused by name.
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	killedSpec := spec
	killedSpec.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	killedSpec.Progress = func(p Progress) {
		if p.RunsDone >= 1 {
			cancel()
		}
	}
	killedJob, err := Plan(killedSpec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := killedJob.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(ctx, RunOpts{Checkpoint: path}); !errors.Is(err, context.Canceled) {
		t.Skipf("shard completed before the cancellation landed: %v", err)
	}
	incomplete, err := LoadPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	refuse("incomplete shard", "incomplete", parts[0], incomplete)
}

func TestLoadPartialErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPartial(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Fatal("missing partial accepted")
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPartial(bad); err == nil {
		t.Fatal("garbage partial accepted")
	}
}

// FuzzLoadPartial drives the shard-file trust boundary: the two inputs
// are written as the two shard checkpoint files of ckptSpec, loaded
// with LoadPartial and merged. Nothing may panic, and every merge that
// is accepted emits only vector sample counts in [0, reps]. The seed
// corpus under testdata/fuzz holds a real 2-shard run and the same run
// with one final record's vector counts forged to 1000000 and -3.
func FuzzLoadPartial(f *testing.F) {
	spec := ckptSpec()
	f.Fuzz(func(t *testing.T, shard0, shard1 []byte) {
		dir := t.TempDir()
		var parts []*Partial
		for i, b := range [][]byte{shard0, shard1} {
			path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := LoadPartial(path)
			if err != nil {
				return
			}
			parts = append(parts, p)
		}
		res, err := Merge(spec, parts)
		if err != nil {
			return
		}
		for _, c := range res.Cells {
			for _, v := range c.Vectors {
				for k, n := range v.N {
					if n < 0 || n > c.Reps {
						t.Fatalf("cell %d vector %s position %d emits %d samples of %d replications",
							c.Index, v.Name, k, n, c.Reps)
					}
				}
			}
		}
	})
}

// TestForgedStopRefused: a shard checkpoint hand-edited so that a cell
// claims an adaptive stop after one replication, under a spec with no
// adaptive rule, is refused by both Merge and Resume rather than
// emitted as a short cell.
func TestForgedStopRefused(t *testing.T) {
	spec := ckptSpec()
	spec.Workers = 1 // every replication advances the fold by one record
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		shard, err := job.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if _, err := shard.Run(context.Background(), RunOpts{Checkpoint: paths[i]}); err != nil {
			t.Fatal(err)
		}
	}

	// Keep only cell 0's first record, marked stopped.
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	forged := []string{lines[0]}
	seen := false
	for _, line := range lines[1:] {
		var rec checkpointRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Cell == 0 {
			if seen {
				continue
			}
			seen = true
			rec.Stopped, rec.Reason = true, "forged"
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			line = string(b)
		}
		forged = append(forged, line)
	}
	if err := os.WriteFile(paths[1], []byte(strings.Join(forged, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	const want = "adaptively stopped"
	parts := make([]*Partial, 2)
	for i, path := range paths {
		if parts[i], err = LoadPartial(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(spec, parts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("merge of a forged stop: err = %v, want %q", err, want)
	}
	shard, err := job.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shard.Run(context.Background(), RunOpts{Checkpoint: paths[1], Resume: true})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume of a forged stop: err = %v, want %q", err, want)
	}
}

// A shard's checkpoint cannot be resumed by a job with different shard
// coordinates: the same spec, planned unsharded, is refused.
func TestResumeShardMismatch(t *testing.T) {
	spec := ckptSpec()
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := job.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	if _, err := shard.Run(context.Background(), RunOpts{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	_, err = runCkpt(context.Background(), spec, path, true)
	if err == nil || !strings.Contains(err.Error(), "shard") ||
		!strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("unsharded resume of a shard checkpoint: err = %v", err)
	}
}

// Checkpoints written before sharding existed carry no shard fields;
// they normalize to the unsharded coordinates and keep resuming.
func TestResumeLegacyHeader(t *testing.T) {
	spec := ckptSpec()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	want, _ := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return runCkpt(context.Background(), spec, path, false, sinks...)
	})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"shard", "shards", "offset", "total_cells"} {
		delete(hdr, k)
	}
	legacy, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append(legacy, '\n'), lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}

	got, _ := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return runCkpt(context.Background(), spec, path, true, sinks...)
	})
	if got != want {
		t.Fatalf("legacy-header resume diverged:\n%s\nvs\n%s", got, want)
	}
}

// Sharding composes with the Skip hook: skips belong to the plan, and
// the merged result reproduces them exactly like an unsharded run.
func TestShardMergeWithSkips(t *testing.T) {
	spec := ckptSpec()
	spec.Skip = func(p Point) string {
		if p.Targets == 8 {
			return "eight targets excluded"
		}
		return ""
	}
	want, wantRes := runToBytes(t, func(sinks ...Sink) (*Result, error) {
		return Run(context.Background(), spec, sinks...)
	})
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells() != 2 {
		t.Fatalf("%d executable cells after skip", job.Cells())
	}
	parts := make([]*Partial, 2)
	for i := range parts {
		shard, err := job.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = shard.Run(context.Background(), RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	res, err := Merge(spec, parts, CSV(&buf), JSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("merged output with skips diverged:\n%s\nvs\n%s", buf.String(), want)
	}
	if len(res.Skipped) != len(wantRes.Skipped) {
		t.Fatalf("merged %d skips, want %d", len(res.Skipped), len(wantRes.Skipped))
	}
}

// TestShardProgressTotals: Spec.Progress on a shard reports the
// shard's own totals, not the plan's.
func TestShardProgressTotals(t *testing.T) {
	spec := ckptSpec()
	var last Progress
	calls := 0
	spec.Progress = func(p Progress) { last = p; calls++ }
	job, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := job.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(context.Background(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last.CellsTotal != 2 || last.CellsDone != 2 {
		t.Fatalf("final shard progress %+v after %d calls", last, calls)
	}
}
