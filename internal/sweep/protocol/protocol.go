// Package protocol is the transport-neutral wire model of the sweep
// job API: the JSON types that let sweeps, cells, and their fold
// states travel between processes — the tctp-sweep CLI, the
// long-lived tctp-server daemon, and any future remote worker — with
// none of the engine's Go-level machinery (closures, planners,
// collectors) attached.
//
// Three ideas anchor the model:
//
//   - A cell's identity is content-addressed. CellIdentity hashes
//     everything that determines one cell's computation and fold —
//     the parameter point, the full fleet/workload configurations,
//     the replication protocol, and the caller's config digest — but
//     deliberately NOT the sweep's name or the other cells of the
//     grid that enumerated it. Two overlapping sweeps therefore agree
//     on the keys of their shared cells, which is what makes the
//     sha256 key a cache key rather than just a checkpoint guard.
//
//   - A cell's result is its fold state. FoldState reuses the
//     checkpoint JSONL encoding (bit-exact Welford snapshots via
//     stats.AccumulatorState), so a cached, merged, or wire-shipped
//     cell restores the same bits an uninterrupted local run would
//     hold, and sink output downstream of any of them is
//     byte-identical.
//
//   - A sweep request is plain data. SweepRequest mirrors the
//     tctp-sweep axis flags one-for-one; internal/sweep/build turns
//     it into an executable Spec on whichever machine receives it.
package protocol

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tctp/internal/stats"
)

// FoldState is the complete, bit-exact fold state of one cell: the
// seed-ordered replication frontier and every Welford accumulator's
// snapshot. It is the unit the checkpoint file persists per line, the
// cache stores per cell key, and Merge fuses across shards. Restoring
// it and folding the remaining replications (if any) reproduces an
// uninterrupted run bit for bit.
type FoldState struct {
	// Next is the number of replications folded so far (the next
	// replication index to fold).
	Next int `json:"next"`
	// Stopped marks a cell frozen below its replication ceiling by
	// adaptive early stopping; Reason says why.
	Stopped bool   `json:"stopped,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Scalars holds one snapshot per scalar metric, Vectors one
	// snapshot per position per vector metric.
	Scalars []stats.AccumulatorState   `json:"scalars"`
	Vectors [][]stats.AccumulatorState `json:"vectors,omitempty"`
}

// VectorID is the structural identity of one vector metric: its name
// and fixed capacity.
type VectorID struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
}

// CellIdentity is the content-addressed identity of one sweep cell.
// The sweep engine fills the raw fields with the canonical JSON of
// its own types (Point, Fleet, Workload, Adaptive); this package only
// fixes the envelope and the hash, so the key derivation is visible
// at the wire level without importing the engine.
//
// Everything that can change the cell's numbers is in here:
// the parameter point (which already carries the algorithm, placement,
// partition, and workload/fleet names), the full fleet and workload
// configurations behind those names, the replication protocol (seeds,
// base seed, adaptive rule), the metric schema, and the caller's
// opaque config digest for hook-applied geometry.
// Everything that cannot is out: the sweep's name, the worker count,
// sink formats, and the rest of the grid.
type CellIdentity struct {
	Point    json.RawMessage `json:"point"`
	Fleet    json.RawMessage `json:"fleet,omitempty"`
	Workload json.RawMessage `json:"workload,omitempty"`
	// Failure is the cell's failure-injection configuration when the
	// Failures axis is enabled; omitted for static-world cells so
	// pre-failure cache keys stay stable. Scenario-declared event
	// schedules reach the identity through Digest instead.
	Failure  json.RawMessage `json:"failure,omitempty"`
	Seeds    int             `json:"seeds"`
	BaseSeed uint64          `json:"base_seed"`
	Adaptive json.RawMessage `json:"adaptive,omitempty"`
	Metrics  []string        `json:"metrics"`
	Vectors  []VectorID      `json:"vectors,omitempty"`
	Digest   string          `json:"digest,omitempty"`
}

// Key returns the cell's content-addressed cache key:
// "sha256:" + hex of the SHA-256 of the identity's canonical JSON.
func (c CellIdentity) Key() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("protocol: cell identity: %w", err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// ValidKey reports whether key has the exact shape CellIdentity.Key
// produces. Stores use it to refuse malformed keys before they become
// file names.
func ValidKey(key string) bool {
	const prefix = "sha256:"
	if len(key) != len(prefix)+sha256.Size*2 || key[:len(prefix)] != prefix {
		return false
	}
	_, err := hex.DecodeString(key[len(prefix):])
	return err == nil
}

// Source says how a cell's fold state was obtained from a cache-backed
// run: computed fresh, served from the cache, or joined onto another
// in-flight computation of the same cell (single-flight dedup).
type Source string

// The cell sources.
const (
	SourceComputed Source = "computed"
	SourceHit      Source = "hit"
	SourceJoined   Source = "joined"
)

// SweepRequest is a sweep spec as plain data: the axis and protocol
// flags of tctp-sweep, one JSON field per flag, with the same
// zero-value-means-default semantics. internal/sweep/build translates
// it into an executable sweep.Spec.
type SweepRequest struct {
	// Algorithms is the comma-separated algorithm axis (tctp-sweep
	// -alg); empty means the CLI default "btctp".
	Algorithms string `json:"algorithms,omitempty"`
	Targets    string `json:"targets,omitempty"`
	Mules      string `json:"mules,omitempty"`
	Speeds     string `json:"speeds,omitempty"`
	Fleets     string `json:"fleets,omitempty"`
	Placements string `json:"placements,omitempty"`
	// Workloads is the comma-separated workload axis (off, on,
	// bursts), parameterized by the Workload*/Burst* knobs below.
	Workloads        string  `json:"workloads,omitempty"`
	WorkloadGen      float64 `json:"workload_gen,omitempty"`
	WorkloadBuffer   int     `json:"workload_buffer,omitempty"`
	WorkloadDeadline float64 `json:"workload_deadline,omitempty"`
	BurstHot         int     `json:"burst_hot,omitempty"`
	BurstGap         float64 `json:"burst_gap,omitempty"`
	BurstSize        int     `json:"burst_size,omitempty"`
	// Preset names a built-in scenario preset; Scenario carries an
	// inline scenario document (the internal/scenario JSON model) —
	// the wire form of the CLI's -scenario file, so a server never
	// reads paths off its own disk. At most one of the two may be set.
	Preset   string          `json:"preset,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Seeds    int             `json:"seeds,omitempty"`
	BaseSeed uint64          `json:"base_seed,omitempty"`
	Horizon  float64         `json:"horizon,omitempty"`
	// Workers bounds each cell's replication pool; 0 = GOMAXPROCS of
	// the executing machine.
	Workers   int    `json:"workers,omitempty"`
	Adaptive  string `json:"adaptive,omitempty"`
	Partition string `json:"partition,omitempty"`
	// Failures is the comma-separated failure-injection axis
	// (tctp-sweep -failures), values in "rate[:handoff]" form;
	// Handoff is the default policy applied to values that do not
	// name their own (tctp-sweep -handoff).
	Failures string `json:"failures,omitempty"`
	Handoff  string `json:"handoff,omitempty"`
	// Quality adds the approximation-ratio metric columns
	// (ratio_tour, ratio_dcdt) computed against the internal/optimal
	// reference bounds (tctp-sweep -quality). The extra metric names
	// enter every cell's content-addressed identity, so quality cells
	// never collide with plain cells in a shared cache.
	Quality bool `json:"quality,omitempty"`
}

// Event is one line of a sweep's NDJSON event stream
// (GET /sweeps/{id}/events): a per-cell progress record, then a
// terminal "done" or "error".
type Event struct {
	// Type is "cell", "done", or "error".
	Type string `json:"type"`
	// Cell fields (Type == "cell").
	Cell   int    `json:"cell,omitempty"`
	Key    string `json:"key,omitempty"`
	Source Source `json:"source,omitempty"`
	// Result is the finished cell's aggregated result
	// (sweep.CellResult JSON), attached to "cell" events.
	Result json.RawMessage `json:"result,omitempty"`
	// Done fields (Type == "done").
	Cells int `json:"cells,omitempty"`
	Runs  int `json:"runs,omitempty"`
	// Error (Type == "error").
	Error string `json:"error,omitempty"`
}

// SweepStatus is the GET /sweeps/{id} document.
type SweepStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"` // "running", "done", "failed"
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	CellsDone   int    `json:"cells_done"`
	Hits        int    `json:"hits"`
	Computed    int    `json:"computed"`
	Joined      int    `json:"joined"`
	// Remote counts cells computed by remote workers (sources with the
	// "worker:" prefix) when the server runs a worker fleet.
	Remote int    `json:"remote,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SubmitResponse is the POST /sweeps reply.
type SubmitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	// Skipped counts cells excluded by the request's own constraints
	// (e.g. more mules than targets); they appear in the result's
	// footer exactly as in a local run.
	Skipped int `json:"skipped"`
}
