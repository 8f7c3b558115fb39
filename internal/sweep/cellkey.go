package sweep

// Content-addressed cell identity. The plan fingerprint (checkpoint.go)
// pins a whole grid; the cell key pins ONE cell, independently of the
// grid that enumerated it, so overlapping sweeps agree on the keys of
// their shared cells. That independence is what turns the fingerprint
// machinery into a cache: a cell computed for one sweep is a hit for
// every other sweep whose axes happen to cross through the same point
// under the same replication protocol.
//
// A key is the SHA-256 of the cell's protocol.CellIdentity JSON, but
// the identity is never marshalled per cell. Plan encodes each cell's
// point once (the fingerprint hashes the same bytes), the fleet,
// workload and failure members once per distinct combination, and
// everything after them — seeds, base seed, adaptive rule, metrics,
// vectors, digest, which no cell of a job varies — once per job, as
// the tail. A key then hashes
//
//	{"point":P[,"fleet":F][,"workload":W][,"failure":X]<tail>
//
// which is byte for byte what json.Marshal(CellIdentity) writes:
// Marshal emits the fields in declaration order, leaves out the empty
// omitempty members, and copies each RawMessage member through a
// compaction with HTML escaping, which is the identity on bytes that
// json.Marshal itself produced (already compact and escaped). The
// tail is cut from a marshalled CellIdentity, so the struct stays the
// schema. internal/sweep/oracle_test.go keeps the whole-struct
// encoding as the oracle.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tctp/internal/sweep/protocol"
)

// pointMember opens every encoded cell identity.
const pointMember = `{"point":`

// encodeCells encodes, once per plan, what the fingerprint and the
// cell keys hash: each cell's point into d.enc, and the fleet,
// workload and failure members of its identity into d.axes, shared by
// the cells with the same three values (their names are unique on
// their axes, as validate checks). It must be called on a
// defaults-applied spec.
func (s *Spec) encodeCells(defs []cellDef) error {
	// One encoder writes every point into one buffer; its output is
	// json.Marshal's plus a newline.
	var buf bytes.Buffer
	buf.Grow(160 * len(defs)) // a point encodes to 130–200 bytes
	enc := json.NewEncoder(&buf)
	ends := make([]int, len(defs))
	axes := make(map[[3]string][]byte)
	for i := range defs {
		d := &defs[i]
		if err := enc.Encode(&d.point); err != nil {
			return fmt.Errorf("sweep: cell identity: %w", err)
		}
		ends[i] = buf.Len() - 1
		names := [3]string{d.point.Fleet, d.point.Workload, d.point.Failure}
		a, ok := axes[names]
		if !ok {
			var err error
			if a, err = identityAxes(d); err != nil {
				return fmt.Errorf("sweep: cell identity: %w", err)
			}
			axes[names] = a
		}
		d.axes = a
	}
	b, start := buf.Bytes(), 0
	for i := range defs {
		defs[i].enc = b[start:ends[i]:ends[i]]
		start = ends[i] + 1
	}
	return nil
}

// identityAxes encodes the identity members between the point and the
// tail. The point carries only the fleet/workload names; the full
// configurations join the identity so e.g. two workloads that share a
// name but differ in burst size hash apart. Zero values (the Mules ×
// Speeds cross, the "no workload" axis default, the static world) are
// omitted, matching their omission from the enumeration.
func identityAxes(d *cellDef) ([]byte, error) {
	var out []byte
	add := func(member string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out = append(append(out, member...), b...)
		return nil
	}
	if d.fleet.Size() > 0 || d.fleet.Name != "" {
		if err := add(`,"fleet":`, d.fleet); err != nil {
			return nil, err
		}
	}
	if d.workload.Enabled() {
		if err := add(`,"workload":`, d.workload); err != nil {
			return nil, err
		}
	}
	if d.failure.Enabled() {
		if err := add(`,"failure":`, d.failure); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// identityTail encodes the members of a cell identity that every cell
// of the spec shares: the replication protocol, the metric schema and
// the config digest, through the closing brace.
func (s *Spec) identityTail() ([]byte, error) {
	id := protocol.CellIdentity{
		Point:    json.RawMessage("0"),
		Seeds:    s.Seeds,
		BaseSeed: s.BaseSeed,
		Metrics:  make([]string, len(s.Metrics)),
		Digest:   s.ConfigDigest,
	}
	var err error
	if s.Adaptive != nil {
		if id.Adaptive, err = json.Marshal(s.Adaptive); err != nil {
			return nil, fmt.Errorf("sweep: cell identity: %w", err)
		}
	}
	for i, m := range s.Metrics {
		id.Metrics[i] = m.Name
	}
	for _, vm := range s.Vectors {
		id.Vectors = append(id.Vectors, protocol.VectorID{Name: vm.Name, Len: vm.Len})
	}
	b, err := json.Marshal(id)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell identity: %w", err)
	}
	return b[len(pointMember+"0"):], nil
}

// cellKey hashes job-local cell i's identity, assembled in buf (which
// it returns for reuse).
func (j *Job) cellKey(buf []byte, i int) (string, []byte) {
	d := &j.defs[i]
	buf = append(buf[:0], pointMember...)
	buf = append(buf, d.enc...)
	buf = append(buf, d.axes...)
	buf = append(buf, j.tail...)
	sum := sha256.Sum256(buf)
	const prefix = "sha256:"
	var key [len(prefix) + 2*sha256.Size]byte
	copy(key[:], prefix)
	hex.Encode(key[len(prefix):], sum[:])
	return string(key[:]), buf
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
	key, _ := j.cellKey(nil, i)
	return key, nil
}

// CellKeys returns the content-addressed keys of all the job's cells
// in enumeration order.
func (j *Job) CellKeys() []string {
	out := make([]string, len(j.defs))
	var buf []byte
	for i := range j.defs {
		out[i], buf = j.cellKey(buf, i)
	}
	return out
}
