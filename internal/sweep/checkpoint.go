package sweep

// Checkpoint/resume support. A checkpointed sweep appends one JSONL
// record per completed (in-order) replication: the owning cell, the
// next-replication counter, and the bit-exact state of every Welford
// accumulator (see stats.AccumulatorState). Only the seed-ordered
// folded prefix is ever persisted — out-of-order replications parked
// in a collector's pending set are re-executed on resume — so a
// resumed sweep folds exactly the samples an uninterrupted one would,
// in the same order, and produces byte-identical sink output.
//
// The first line is a header carrying a fingerprint of the spec's
// structural identity (cells, metrics, replication protocol). Resume
// refuses a checkpoint whose fingerprint does not match the offered
// spec: continuing a sweep under a different grid would silently mix
// incompatible aggregates.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"tctp/internal/scenario"
	"tctp/internal/stats"
	"tctp/internal/sweep/protocol"
)

const checkpointVersion = 1

// checkpointHeader is the first line of every checkpoint file. The
// shard fields locate the file's cells inside the full plan; files
// written before sharding existed omit them, and readCheckpoint
// normalizes that to the unsharded coordinates (shard 0 of 1 covering
// the whole plan), so legacy checkpoints keep resuming.
type checkpointHeader struct {
	Version     int    `json:"checkpoint"`
	Sweep       string `json:"sweep"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	MaxReps     int    `json:"max_reps"`
	Shard       int    `json:"shard,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	Offset      int    `json:"offset,omitempty"`
	TotalCells  int    `json:"total_cells,omitempty"`
}

// checkpointRecord is one cell's fold state after an in-order fold
// advance. Later records for the same cell supersede earlier ones.
// The state body is the transport-neutral protocol.FoldState — the
// embedding keeps the JSONL encoding identical to the pre-protocol
// format (cell, next, stopped, reason, scalars, vectors) while letting
// the cache and the wire share the exact same record type.
type checkpointRecord struct {
	Cell int `json:"cell"`
	protocol.FoldState
}

// fingerprint hashes the spec's structural identity: everything
// declarative that determines which replications run and how they fold
// — the protocol, every cell's point, the full workload and fleet
// configurations (points carry only their names), and the caller's
// ConfigDigest. Behavior hooks (Configure, Options, Scenario, variant
// constructors) cannot be hashed; callers whose hooks close over
// external configuration must fold that configuration into
// Spec.ConfigDigest, as cmd/tctp-sweep does for -preset/-scenario.
//
// The hashed bytes are the JSON of the struct below with a last
// member "points" listing every cell's point; the points are the
// encodings encodeCells stored in defs, spliced in rather than
// encoded again (internal/sweep/oracle_test.go keeps the one-struct
// encoding as the oracle).
func (s *Spec) fingerprint(defs []cellDef) (string, error) {
	type vectorID struct {
		Name string `json:"name"`
		Len  int    `json:"len"`
	}
	id := struct {
		Name      string              `json:"name"`
		Seeds     int                 `json:"seeds"`
		BaseSeed  uint64              `json:"base_seed"`
		Adaptive  *Adaptive           `json:"adaptive,omitempty"`
		Metrics   []string            `json:"metrics"`
		Vectors   []vectorID          `json:"vectors,omitempty"`
		Workloads []scenario.Workload `json:"workloads,omitempty"`
		Fleets    []scenario.Fleet    `json:"fleets,omitempty"`
		Digest    string              `json:"digest,omitempty"`
	}{
		Name:      s.Name,
		Seeds:     s.Seeds,
		BaseSeed:  s.BaseSeed,
		Adaptive:  s.Adaptive,
		Metrics:   make([]string, len(s.Metrics)),
		Workloads: s.Workloads,
		Fleets:    s.Fleets,
		Digest:    s.ConfigDigest,
	}
	for i, m := range s.Metrics {
		id.Metrics[i] = m.Name
	}
	for _, vm := range s.Vectors {
		id.Vectors = append(id.Vectors, vectorID{Name: vm.Name, Len: vm.Len})
	}
	b, err := json.Marshal(id)
	if err != nil {
		return "", fmt.Errorf("sweep: fingerprint: %w", err)
	}
	h := sha256.New()
	h.Write(b[:len(b)-1]) // every member but the closing brace
	h.Write([]byte(`,"points":[`))
	for i := range defs {
		if i > 0 {
			h.Write([]byte{','})
		}
		h.Write(defs[i].enc)
	}
	h.Write([]byte("]}"))
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// checkpointWriter appends records to the checkpoint file. Each Encode
// lands as a single write of one complete line, so a crash can at
// worst truncate the final line — which the loader tolerates (and
// Resume truncates away before appending). The writer has its own
// lock: records are snapshotted under the engine lock but encoded and
// written outside it, so workers do not serialize on checkpoint I/O.
// Out-of-order writes are harmless — the loader keeps each cell's
// furthest record, and every record is a self-contained prefix state.
type checkpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

func createCheckpoint(path string, hdr checkpointHeader) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: create checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f, enc: json.NewEncoder(f)}
	if err := w.enc.Encode(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: checkpoint header: %w", err)
	}
	return w, nil
}

// appendCheckpoint reopens a loaded checkpoint for writing, first
// truncating it to validLen — the end of its last valid line — so a
// crash's partial final line is not merged with the next record.
func appendCheckpoint(path string, validLen int64) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: trim checkpoint: %w", err)
	}
	return &checkpointWriter{f: f, enc: json.NewEncoder(f)}, nil
}

// snapshotRecord copies one cell's current fold state. Called under
// the engine lock; the copy is what write encodes outside it.
func snapshotRecord(cell int, c *collector) *checkpointRecord {
	rec := &checkpointRecord{
		Cell: cell,
		FoldState: protocol.FoldState{
			Next:    c.next,
			Stopped: c.stopReason != "",
			Reason:  c.stopReason,
			Scalars: make([]stats.AccumulatorState, len(c.scalars)),
		},
	}
	for i := range c.scalars {
		rec.Scalars[i] = c.scalars[i].State()
	}
	if len(c.vectors) > 0 {
		rec.Vectors = make([][]stats.AccumulatorState, len(c.vectors))
		for i, accs := range c.vectors {
			rec.Vectors[i] = make([]stats.AccumulatorState, len(accs))
			for k := range accs {
				rec.Vectors[i][k] = accs[k].State()
			}
		}
	}
	return rec
}

// write persists a snapshotted record.
func (w *checkpointWriter) write(rec *checkpointRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(rec)
}

// Close is idempotent: Job.run closes explicitly on success to surface
// the error, and once more via defer on every other path.
func (w *checkpointWriter) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	return f.Close()
}

// readCheckpoint parses a checkpoint file without reference to a spec:
// the normalized header, each cell's furthest recorded state (records
// may land slightly out of order — the writer runs outside the engine
// lock — and every record is a self-contained prefix, so the largest
// counter wins), and the byte length of the valid content, which
// Resume truncates to before appending. A truncated final line (the
// signature of a mid-write crash) is ignored; any other malformed or
// internally inconsistent content is a hard error — resuming from or
// merging corrupted state would poison every downstream aggregate.
// Spec conformance (fingerprint, shard coordinates, Spec.checkState) is
// the caller's job: loadCheckpoint for Resume, Merge for partials.
func readCheckpoint(path string) (checkpointHeader, map[int]checkpointRecord, int64, error) {
	var hdr checkpointHeader
	raw, err := os.ReadFile(path)
	if err != nil {
		return hdr, nil, 0, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	content := string(raw)
	lines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
	if !strings.HasSuffix(content, "\n") && len(lines) > 0 {
		// A torn write can cut a line anywhere — even leaving complete
		// JSON with only the newline missing — so an unterminated final
		// line is always discarded (Resume re-executes its replication)
		// rather than parsed; counting it into validLen would make the
		// truncate-then-append corrupt the file.
		if len(lines) == 1 {
			return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: truncated header", path)
		}
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 || lines[0] == "" {
		return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s is empty", path)
	}

	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: malformed header: %w", path, err)
	}
	if hdr.Version != checkpointVersion {
		return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: unsupported version %d (want %d)",
			path, hdr.Version, checkpointVersion)
	}
	if hdr.Shards == 0 {
		// Pre-sharding file: the whole plan in one piece.
		hdr.Shard, hdr.Shards, hdr.Offset, hdr.TotalCells = 0, 1, 0, hdr.Cells
	}
	if hdr.Shard < 0 || hdr.Shard >= hdr.Shards || hdr.Offset < 0 ||
		hdr.Offset+hdr.Cells > hdr.TotalCells {
		return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: inconsistent shard geometry %d/%d cells %d..%d of %d",
			path, hdr.Shard, hdr.Shards, hdr.Offset, hdr.Offset+hdr.Cells, hdr.TotalCells)
	}

	validLen := int64(len(lines[0]) + 1)
	out := make(map[int]checkpointRecord)
	for i, line := range lines[1:] {
		lineNo := i + 2
		var rec checkpointRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: line %d: corrupt record: %w",
				path, lineNo, err)
		}
		if err := checkRecordShape(&rec, &hdr); err != nil {
			return hdr, nil, 0, fmt.Errorf("sweep: checkpoint %s: line %d: %w", path, lineNo, err)
		}
		validLen += int64(len(line) + 1)
		if prev, ok := out[rec.Cell]; !ok || rec.Next > prev.Next {
			out[rec.Cell] = rec
		}
	}
	return hdr, out, validLen, nil
}

// checkRecordShape enforces the invariants a record must satisfy
// against its own header, spec unseen: cell and counter ranges, and
// agreement between the counter and every scalar accumulator's sample
// count.
func checkRecordShape(rec *checkpointRecord, hdr *checkpointHeader) error {
	if rec.Cell < 0 || rec.Cell >= hdr.Cells {
		return fmt.Errorf("cell %d outside [0,%d)", rec.Cell, hdr.Cells)
	}
	if rec.Next < 1 || rec.Next > hdr.MaxReps {
		return fmt.Errorf("cell %d has %d folded replications (max %d)",
			rec.Cell, rec.Next, hdr.MaxReps)
	}
	for i, s := range rec.Scalars {
		if s.N != rec.Next {
			return fmt.Errorf("cell %d scalar %d folded %d samples, counter says %d",
				rec.Cell, i, s.N, rec.Next)
		}
	}
	return nil
}

// checkPlan refuses a checkpoint header written for another plan than
// this job's: a different fingerprint, cell total or replication
// ceiling, or a shard range outside the plan. The fingerprint already
// pins the cell list and the protocol; the rest are cheap guards
// against a hand-edited header.
func (j *Job) checkPlan(h *checkpointHeader) error {
	if h.Fingerprint != j.fp {
		return fmt.Errorf("was written for a different sweep spec (fingerprint %s, spec %s)",
			h.Fingerprint, j.fp)
	}
	if maxReps := j.spec.maxReps(); h.TotalCells != j.total || h.MaxReps != maxReps ||
		h.Offset < 0 || h.Offset+h.Cells > j.total {
		return fmt.Errorf("covers cells %d..%d of %d × %d reps, the plan has %d × %d",
			h.Offset, h.Offset+h.Cells, h.TotalCells, h.MaxReps, j.total, maxReps)
	}
	return nil
}

// loadCheckpoint reads and validates a checkpoint for resuming the
// given job: the header must belong to the job's plan (checkPlan) and
// carry the job's own shard coordinates, and every record must pass
// Spec.checkState.
func loadCheckpoint(path string, j *Job) (map[int]checkpointRecord, int64, error) {
	hdr, records, validLen, err := readCheckpoint(path)
	if err != nil {
		return nil, 0, err
	}
	if err := j.checkPlan(&hdr); err != nil {
		return nil, 0, fmt.Errorf("sweep: checkpoint %s %v: refusing to resume", path, err)
	}
	if hdr.Shard != j.shard || hdr.Shards != j.shards || hdr.Offset != j.offset || hdr.Cells != len(j.defs) {
		return nil, 0, fmt.Errorf(
			"sweep: checkpoint %s belongs to shard %d/%d (cells %d..%d of %d), this job is shard %d/%d (cells %d..%d of %d): refusing to resume",
			path, hdr.Shard, hdr.Shards, hdr.Offset, hdr.Offset+hdr.Cells, hdr.TotalCells,
			j.shard, j.shards, j.offset, j.offset+len(j.defs), j.total)
	}
	// Every record lies inside the shard (readCheckpoint checks it);
	// walking the cells in order makes the refusal the lowest bad
	// cell's, as Merge's is.
	for local := range hdr.Cells {
		rec, ok := records[local]
		if !ok {
			continue
		}
		if err := j.spec.checkState(&rec.FoldState, false); err != nil {
			return nil, 0, fmt.Errorf("sweep: checkpoint %s: cell %d %w", path, rec.Cell, err)
		}
	}
	return records, validLen, nil
}

// checkState is the one guard every fold state crosses before the
// engine restores it — a resumed checkpoint record, a loaded or wire
// partial, a cache entry, a remote worker's result — because a state
// the spec cannot have produced would poison every aggregate folded
// downstream of it. It refuses a replication counter outside
// [1, maxReps], accumulator shapes that differ from the spec's
// metrics, a scalar whose sample count disagrees with the counter, a
// vector position with a negative sample count or more samples than
// the counter (a replication reaches a position at most once), and an
// adaptive stop the engine cannot have made: under a spec with no
// adaptive rule, or outside [MinReps, MaxReps), since the rule is
// only consulted from MinReps folded replications on and a cell folded
// to the ceiling has nothing left to stop. final also requires a
// finished cell: stopped, or folded to the ceiling.
func (s *Spec) checkState(st *protocol.FoldState, final bool) error {
	maxReps := s.maxReps()
	if st.Next < 1 || st.Next > maxReps {
		return fmt.Errorf("has %d folded replications (max %d)", st.Next, maxReps)
	}
	if len(st.Scalars) != len(s.Metrics) {
		return fmt.Errorf("carries %d scalar accumulators, spec has %d metrics",
			len(st.Scalars), len(s.Metrics))
	}
	for i, sc := range st.Scalars {
		if sc.N != st.Next {
			return fmt.Errorf("scalar %d folded %d samples, counter says %d", i, sc.N, st.Next)
		}
	}
	if len(st.Vectors) != len(s.Vectors) {
		return fmt.Errorf("carries %d vector accumulators, spec has %d",
			len(st.Vectors), len(s.Vectors))
	}
	for i, accs := range st.Vectors {
		if len(accs) != s.Vectors[i].Len {
			return fmt.Errorf("vector %d has %d positions, spec declares %d",
				i, len(accs), s.Vectors[i].Len)
		}
		for k, a := range accs {
			if a.N < 0 || a.N > st.Next {
				return fmt.Errorf("vector %d position %d folded %d samples, counter says at most %d",
					i, k, a.N, st.Next)
			}
		}
	}
	if st.Stopped {
		ad := s.Adaptive
		if ad == nil {
			return fmt.Errorf("is adaptively stopped, spec has no adaptive rule")
		}
		if st.Next < ad.MinReps || st.Next >= ad.MaxReps {
			return fmt.Errorf("is adaptively stopped after %d replications, the rule stops only in [%d, %d)",
				st.Next, ad.MinReps, ad.MaxReps)
		}
	}
	if final && !st.Stopped && st.Next != maxReps {
		return fmt.Errorf("is incomplete: %d of %d replications folded", st.Next, maxReps)
	}
	return nil
}
