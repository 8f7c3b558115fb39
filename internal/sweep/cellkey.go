package sweep

// Content-addressed cell identity. The plan fingerprint (checkpoint.go)
// pins a whole grid; the cell key pins ONE cell, independently of the
// grid that enumerated it, so overlapping sweeps agree on the keys of
// their shared cells. That independence is what turns the fingerprint
// machinery into a cache: a cell computed for one sweep is a hit for
// every other sweep whose axes happen to cross through the same point
// under the same replication protocol.

import (
	"encoding/json"
	"fmt"

	"tctp/internal/sweep/protocol"
)

// cellIdentity builds the content-addressed identity of one cell: the
// point, the full fleet and workload configurations behind the point's
// names, the replication protocol, the metric schema, and the config
// digest. It must be called on a defaults-applied spec.
func (s *Spec) cellIdentity(d cellDef) (protocol.CellIdentity, error) {
	id := protocol.CellIdentity{
		Seeds:    s.Seeds,
		BaseSeed: s.BaseSeed,
		Metrics:  make([]string, len(s.Metrics)),
		Digest:   s.ConfigDigest,
	}
	var err error
	if id.Point, err = json.Marshal(d.point); err != nil {
		return id, fmt.Errorf("sweep: cell identity: %w", err)
	}
	// The point carries only the fleet/workload names; the full
	// configurations join the identity so e.g. two workloads that share
	// a name but differ in burst size hash apart. Zero values (the
	// Mules × Speeds cross, the "no workload" axis default) are
	// omitted, matching their omission from the enumeration.
	if d.fleet.Size() > 0 || d.fleet.Name != "" {
		if id.Fleet, err = json.Marshal(d.fleet); err != nil {
			return id, fmt.Errorf("sweep: cell identity: %w", err)
		}
	}
	if d.workload.Enabled() {
		if id.Workload, err = json.Marshal(d.workload); err != nil {
			return id, fmt.Errorf("sweep: cell identity: %w", err)
		}
	}
	if d.failure.Enabled() {
		if id.Failure, err = json.Marshal(d.failure); err != nil {
			return id, fmt.Errorf("sweep: cell identity: %w", err)
		}
	}
	if s.Adaptive != nil {
		if id.Adaptive, err = json.Marshal(s.Adaptive); err != nil {
			return id, fmt.Errorf("sweep: cell identity: %w", err)
		}
	}
	for i, m := range s.Metrics {
		id.Metrics[i] = m.Name
	}
	for _, vm := range s.Vectors {
		id.Vectors = append(id.Vectors, protocol.VectorID{Name: vm.Name, Len: vm.Len})
	}
	return id, nil
}

// CellKey returns the content-addressed cache key of the job's i-th
// cell (job-local index). Keys depend only on the cell itself and the
// replication protocol — never on the sweep's name, the worker count,
// or the rest of the grid — so any two jobs computing the same cell
// produce the same key.
func (j *Job) CellKey(i int) (string, error) {
	if i < 0 || i >= len(j.defs) {
		return "", fmt.Errorf("sweep: cell %d outside [0,%d)", i, len(j.defs))
	}
	id, err := j.spec.cellIdentity(j.defs[i])
	if err != nil {
		return "", err
	}
	return id.Key()
}

// CellKeys returns the content-addressed keys of all the job's cells
// in enumeration order.
func (j *Job) CellKeys() ([]string, error) {
	out := make([]string, len(j.defs))
	for i := range j.defs {
		k, err := j.CellKey(i)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}
