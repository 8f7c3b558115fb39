package sweep

// The composable job API: the distributed face of the engine.
//
//	job, _  := sweep.Plan(spec)         // deterministic cells + fingerprint
//	shard, _ := job.Shard(1, 3)         // contiguous third of the cells
//	part, _ := shard.Run(ctx, opts)     // opts: checkpoint, resume, sinks
//	res, _  := sweep.Merge(spec, parts, sinks...) // lossless fusion
//
// Plan enumerates the spec's executable cells once and fingerprints
// them; Shard slices the enumeration into contiguous deterministic
// ranges, so the i-th shard of n is the same set of cells on every
// machine that plans the same spec. A shard executes exactly like an
// unsharded run — same seeds, same seed-ordered folds, same adaptive
// stop decisions, global cell indices — so its per-cell fold records
// (the bit-exact Welford snapshots the checkpoint layer already
// persists) are a lossless fragment of the full sweep: Merge fuses any
// complete set of them into output byte-identical to a single-machine
// Run at any shard count. A shard's checkpoint file therefore IS its
// mergeable artifact — run shards with a checkpoint path on n
// machines, ship the JSONL files anywhere, and merge them there.

import (
	"context"
	"fmt"

	"tctp/internal/core"
)

// Job is a planned sweep, or one shard of it: the defaults-applied
// spec, the executable cells in canonical enumeration order, and the
// plan fingerprint. Jobs are immutable — Shard returns new Jobs, and
// Run may be called any number of times (including concurrently on
// sibling shards, as long as the Spec's hooks tolerate it, which the
// engine already requires of them).
type Job struct {
	spec    Spec
	defs    []cellDef // this job's executable cells
	skipped []SkippedCell
	fp      string
	tail    []byte // the cell identities' shared tail (cellkey.go)
	shard   int    // this job's shard index in [0, shards)
	shards  int    // 1 for an unsharded plan
	offset  int    // global index of defs[0] in the full plan
	total   int    // executable cells in the full plan
	// plans remembers the point-set stage of the cells' plans (see
	// core.Memo), shared by the job's shards and by ComputeCell's
	// one-cell sub-jobs, which copy the Job.
	plans *core.Memo
}

// Plan validates the spec, enumerates its executable cells (consulting
// the Skip hook), and fingerprints the plan. The fingerprint pins the
// full plan — every shard of the same spec carries the same one, which
// is how Merge and Resume refuse artifacts from a different sweep. A
// spec whose axes span more than MaxPlanCells cells is refused before
// any cell is enumerated.
func Plan(spec Spec) (*Job, error) {
	sp := spec.withDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	if n := sp.GridCells(); n > MaxPlanCells {
		return nil, fmt.Errorf("sweep: spec %q spans %d cells; one plan holds at most %d",
			sp.Name, n, MaxPlanCells)
	}
	all := sp.cells()
	defs := make([]cellDef, 0, len(all))
	var skipped []SkippedCell
	for _, d := range all {
		if sp.Skip != nil {
			if reason := sp.Skip(d.point); reason != "" {
				skipped = append(skipped, SkippedCell{Point: d.point, Reason: reason})
				continue
			}
		}
		defs = append(defs, d)
	}
	if err := sp.encodeCells(defs); err != nil {
		return nil, err
	}
	fp, err := sp.fingerprint(defs)
	if err != nil {
		return nil, err
	}
	tail, err := sp.identityTail()
	if err != nil {
		return nil, err
	}
	return &Job{
		spec: sp, defs: defs, skipped: skipped, fp: fp, tail: tail,
		shards: 1, total: len(defs), plans: new(core.Memo),
	}, nil
}

// Fingerprint returns the sha256 plan fingerprint shared by every
// shard of this plan.
func (j *Job) Fingerprint() string { return j.fp }

// Cells returns the number of executable cells this job runs (the
// shard's share, or the whole plan for an unsharded job).
func (j *Job) Cells() int { return len(j.defs) }

// TotalCells returns the executable cell count of the full plan.
func (j *Job) TotalCells() int { return j.total }

// Shard returns shard i of n: the i-th of n contiguous, deterministic,
// near-equal ranges of the plan's cell enumeration. Sharding an
// already-sharded job is an error; n == 1 returns a job equivalent to
// the plan itself. Shards of a plan with fewer cells than n may be
// empty — running one is a no-op whose partial merges cleanly.
func (j *Job) Shard(i, n int) (*Job, error) {
	if j.shards != 1 || j.offset != 0 {
		return nil, fmt.Errorf("sweep: job is already shard %d/%d; shard the plan instead",
			j.shard, j.shards)
	}
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("sweep: shard %d/%d outside [0,%d)", i, n, n)
	}
	lo := i * len(j.defs) / n
	hi := (i + 1) * len(j.defs) / n
	s := *j
	s.defs = j.defs[lo:hi]
	s.shard, s.shards, s.offset = i, n, lo
	return &s, nil
}

// Partial is the output of one job run: the header of its checkpoint
// file (the plan fingerprint and the shard coordinates) plus every
// cell's final fold record (the same bit-exact Welford snapshots the
// checkpoint layer persists). Partials come from Job.Run directly, or
// from LoadPartial on a shard's checkpoint file.
type Partial struct {
	hdr     checkpointHeader
	records map[int]checkpointRecord // local cell index → final record
	result  *Result                  // non-nil only when produced by Job.Run
}

// Fingerprint returns the plan fingerprint the partial was produced
// under.
func (p *Partial) Fingerprint() string { return p.hdr.Fingerprint }

// Shard returns the partial's shard coordinates (0, 1) for an
// unsharded run.
func (p *Partial) Shard() (i, n int) { return p.hdr.Shard, p.hdr.Shards }

// Cells returns the number of cells the partial's shard covers.
func (p *Partial) Cells() int { return p.hdr.Cells }

// Result returns the shard's own Result — cells in enumeration order
// with plan-global indices — or nil for a partial loaded from a
// checkpoint file.
func (p *Partial) Result() *Result { return p.result }

// LoadPartial reads a shard's checkpoint file into a mergeable
// Partial. Only structural integrity is checked here (a torn final
// line is tolerated exactly as on Resume); spec conformance,
// fingerprint equality and completeness are enforced by Merge, which
// knows the spec.
func LoadPartial(path string) (*Partial, error) {
	hdr, records, _, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return &Partial{hdr: hdr, records: records}, nil
}

// Merge fuses shard partials into the full sweep result, streaming the
// cells to the sinks in plan enumeration order. The partials must all
// carry the spec's plan fingerprint (a mismatch is refused — merging
// cells from a different grid would silently mix incompatible
// aggregates), must not overlap, and must together cover every cell
// with a complete fold (a shard that was killed and never resumed is
// refused, naming the incomplete cell). The validated records are
// restored into the engine as finished cells; because every record is
// the bit-exact state of its seed-ordered fold, the merged sink output
// is byte-identical to an unsharded Run of the same spec.
func Merge(spec Spec, partials []*Partial, sinks ...Sink) (*Result, error) {
	j, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("sweep: merge of %q has no partials", j.spec.Name)
	}
	sp := &j.spec
	maxReps := sp.maxReps()
	global := make(map[int]checkpointRecord, len(j.defs))
	owner := make(map[int]int, len(j.defs)) // global cell → partial index
	for pi, p := range partials {
		if p == nil {
			return nil, fmt.Errorf("sweep: merge of %q: partial %d is nil", sp.Name, pi)
		}
		h := &p.hdr
		if err := j.checkPlan(h); err != nil {
			return nil, fmt.Errorf("sweep: partial %d (shard %d/%d of sweep %q) %v: refusing to merge",
				pi, h.Shard, h.Shards, h.Sweep, err)
		}
		// Every record lies inside its shard (readCheckpoint checks a
		// loaded one); walking the cells in order makes the first
		// refusal the lowest cell's.
		for local := range h.Cells {
			rec, ok := p.records[local]
			if !ok {
				continue
			}
			g := h.Offset + local
			if err := sp.checkState(&rec.FoldState, true); err != nil {
				hint := ""
				if !rec.Stopped && rec.Next < maxReps {
					hint = " (resume its shard before merging)"
				}
				return nil, fmt.Errorf("sweep: partial %d: cell %d (%v) %v%s",
					pi, g, j.defs[g].point, err, hint)
			}
			if prev, dup := owner[g]; dup {
				return nil, fmt.Errorf("sweep: cell %d (%v) is supplied by partials %d and %d: overlapping shards",
					g, j.defs[g].point, prev, pi)
			}
			owner[g] = pi
			global[g] = rec
		}
	}
	for i := range j.defs {
		if _, ok := global[i]; !ok {
			return nil, fmt.Errorf("sweep: cell %d (%v) is missing from the partials: incomplete shard set",
				i, j.defs[i].point)
		}
	}
	p, err := j.run(context.TODO(), RunOpts{Sinks: sinks}, global, nil)
	if err != nil {
		return nil, err
	}
	return p.Result(), nil
}
