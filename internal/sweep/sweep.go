// Package sweep is a declarative, deterministic, fully parallel
// grid-execution engine: the substrate behind every parameter sweep in
// this repository (cmd/tctp-sweep, the figure runners and ablations in
// internal/experiment).
//
// A Spec declares parameter axes — algorithm variants, target counts,
// fleet sizes, mule speeds, heterogeneous fleets, placements,
// horizons, battery on/off, VIP populations, data workloads — whose
// cartesian product yields cells. Run executes
// cells × replications through one bounded worker pool whose workers
// each take their own next (cell, replication) in enumeration order,
// so a sweep saturates the machine even when each cell has few
// replications.
// Each metric is aggregated with streaming Welford statistics
// (mean/variance/CI95/min/max); no per-seed slices are held in memory.
// Results flow through the Sink interface (CSV, JSON-lines, aligned
// text table).
//
// # Determinism
//
// Replication r of every cell derives all randomness from the seed
// BaseSeed+r through the five independent streams of
// scenario.SeedStreams (scenario, algorithm, workload, partition,
// failure), wired into the run as scenario.Scenario.Run wires them, so
// a one-seed sweep of a scenario replicates Scenario.Run bit for bit.
// Per-cell aggregation folds replications in seed order
// (out-of-order arrivals are buffered until their predecessors land),
// and cells are emitted to sinks in declaration order, so the output
// is bit-identical regardless of worker count.
//
// # Distributed execution
//
// Run is Plan + Job.Run of the composable job API — Plan, Job.Shard,
// Job.Run, Merge (see job.go) — which also checkpoints and resumes a
// sweep (RunOpts), splits it into deterministic cell ranges across
// machines and merges their checkpoint files back into byte-identical
// output.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/stats"
	"tctp/internal/wsn"
	"tctp/internal/xrand"
)

// Point is one cell's full parameter assignment: the value picked from
// every axis of the Spec.
type Point struct {
	Algorithm string `json:"algorithm"`
	Targets   int    `json:"targets"`
	// Mules is the fleet size; with a Fleets axis it is the size of
	// the cell's fleet.
	Mules int `json:"mules"`
	// Speed is the common mule speed; 0 when the cell's fleet mixes
	// speeds (see Fleet).
	Speed float64 `json:"speed"`
	// Fleet names the cell's fleet on the Fleets axis; empty when the
	// fleet comes from the Mules × Speeds axes.
	Fleet     string          `json:"fleet,omitempty"`
	Placement field.Placement `json:"placement"`
	Horizon   float64         `json:"horizon"`
	Battery   bool            `json:"battery"`
	VIPs      int             `json:"vips"`
	VIPWeight int             `json:"vip_weight"`
	// Workload names the cell's data workload; empty means none.
	Workload string `json:"workload,omitempty"`
	// Partition names the cell's target partition on the Partitions
	// axis (canonical "method:k[:alloc]" form); empty means the
	// algorithm's own single-circuit planning.
	Partition string `json:"partition,omitempty"`
	// Failure names the cell's failure injection on the Failures axis
	// (canonical "rate[:handoff]" form); empty means the static world.
	// omitempty keeps the fingerprints and cache keys of pre-failure
	// specs byte-stable.
	Failure string `json:"failure,omitempty"`
}

// String renders the point compactly for skip reports and errors.
func (p Point) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "alg=%s targets=%d mules=%d", p.Algorithm, p.Targets, p.Mules)
	if p.Fleet != "" {
		fmt.Fprintf(&sb, " fleet=%s", p.Fleet)
	} else {
		fmt.Fprintf(&sb, " speed=%g", p.Speed)
	}
	fmt.Fprintf(&sb, " placement=%s horizon=%g", p.Placement, p.Horizon)
	if p.Battery {
		sb.WriteString(" battery=on")
	}
	if p.VIPs > 0 {
		fmt.Fprintf(&sb, " vips=%d w=%d", p.VIPs, p.VIPWeight)
	}
	if p.Workload != "" {
		fmt.Fprintf(&sb, " workload=%s", p.Workload)
	}
	if p.Partition != "" {
		fmt.Fprintf(&sb, " partition=%s", p.Partition)
	}
	if p.Failure != "" {
		fmt.Fprintf(&sb, " failure=%s", p.Failure)
	}
	return sb.String()
}

// Partition is one value of the Partitions axis: a target partition
// the cell's planner is run under. The zero Partition (empty method)
// means "no partitioning" — the algorithm plans its usual
// single-circuit form — and is the axis's single default value.
// Enabled partitions wrap the cell's planner in its partitioned
// variant (B-TCTP → C-BTCTP, W-TCTP → C-WTCTP) via
// patrol.Partitioned; algorithms without one fail the cell, so sweeps
// mixing such algorithms should Skip those cells.
type Partition struct {
	// Method is the partitioner: "kmeans" or "sectors".
	Method string `json:"method,omitempty"`
	// K is the region count (independent of the fleet size, but the
	// fleet must carry at least one mule per region).
	K int `json:"k,omitempty"`
	// Alloc is the mule-allocation policy: "length" (default —
	// proportional to region tour length) or "count".
	Alloc string `json:"alloc,omitempty"`
}

// Enabled reports whether the partition is real.
func (p Partition) Enabled() bool { return p.Method != "" }

// String renders the canonical "method:k[:alloc]" form ("none" for
// the zero value) — the value of the Point.Partition coordinate.
func (p Partition) String() string {
	if !p.Enabled() {
		return "none"
	}
	s := p.Method + ":" + strconv.Itoa(p.K)
	if p.Alloc != "" && p.Alloc != "length" {
		s += ":" + p.Alloc
	}
	return s
}

// name is the Point coordinate: empty for the zero partition.
func (p Partition) name() string {
	if !p.Enabled() {
		return ""
	}
	return p.String()
}

// Config translates the axis value to the planner-level
// configuration.
func (p Partition) Config() (core.PartitionConfig, error) {
	var cfg core.PartitionConfig
	m, err := core.ParsePartitionMethod(p.Method)
	if err != nil {
		return cfg, err
	}
	alloc := core.AllocByLength
	if p.Alloc != "" {
		if alloc, err = core.ParseAllocPolicy(p.Alloc); err != nil {
			return cfg, err
		}
	}
	if p.K < 1 {
		return cfg, fmt.Errorf("sweep: partition %s needs k >= 1", p)
	}
	cfg.Method, cfg.K, cfg.Alloc = m, p.K, alloc
	return cfg, nil
}

// ParsePartition parses "method:k[:alloc]" ("none" or "" yields the
// zero partition).
func ParsePartition(s string) (Partition, error) {
	if s == "" || s == "none" {
		return Partition{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Partition{}, fmt.Errorf("sweep: bad partition %q (want method:k[:alloc], e.g. kmeans:4)", s)
	}
	p := Partition{Method: parts[0]}
	k, err := strconv.Atoi(parts[1])
	if err != nil || k < 1 {
		return Partition{}, fmt.Errorf("sweep: bad partition region count %q", parts[1])
	}
	p.K = k
	if len(parts) == 3 {
		p.Alloc = parts[2]
	}
	if _, err := p.Config(); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// Failure is one value of the Failures axis: a seeded failure
// injection the cell's fleet is subjected to. The zero Failure (rate
// 0) means the static world and is the axis's single default value.
// Enabled failures derive each replication's kill schedule from the
// replication's failure stream (scenario.Streams.Failure), after any
// scenario-event attrition picks: every mule independently
// dies with probability Rate at a uniform time before the horizon, and
// the fleet answers with the Handoff policy.
type Failure struct {
	// Rate is the per-mule failure probability over the horizon, in
	// [0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Handoff is the replan policy: "" or "none" leaves the surviving
	// routes untouched, "absorb" swaps in a replanned fleet plan at
	// each failure (patrol.HandoffAbsorb).
	Handoff string `json:"handoff,omitempty"`
}

// Enabled reports whether the failure injection is real.
func (f Failure) Enabled() bool { return f.Rate > 0 }

// String renders the canonical "rate[:handoff]" form ("none" for the
// zero value) — the value of the Point.Failure coordinate.
func (f Failure) String() string {
	if !f.Enabled() {
		return "none"
	}
	s := strconv.FormatFloat(f.Rate, 'g', -1, 64)
	if f.Handoff != "" && f.Handoff != "none" {
		s += ":" + f.Handoff
	}
	return s
}

// name is the Point coordinate: empty for the zero failure.
func (f Failure) name() string {
	if !f.Enabled() {
		return ""
	}
	return f.String()
}

// Policy translates the axis value to the patrol-level handoff.
func (f Failure) Policy() (patrol.Handoff, error) {
	return patrol.ParseHandoff(f.Handoff)
}

// ParseFailure parses "rate[:handoff]" ("none" or "" yields the zero
// failure), e.g. "0.25" or "0.25:absorb".
func ParseFailure(s string) (Failure, error) {
	if s == "" || s == "none" {
		return Failure{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > 2 {
		return Failure{}, fmt.Errorf("sweep: bad failure %q (want rate[:handoff], e.g. 0.25:absorb)", s)
	}
	rate, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || rate < 0 || rate > 1 {
		return Failure{}, fmt.Errorf("sweep: bad failure rate %q (want a probability in [0,1])", parts[0])
	}
	f := Failure{Rate: rate}
	if len(parts) == 2 {
		f.Handoff = parts[1]
	}
	if _, err := f.Policy(); err != nil {
		return Failure{}, err
	}
	return f, nil
}

// Variant is one value of the algorithm axis: a named constructor for
// the algorithm under test. Make receives a copy of the replication's
// algorithm stream so constructions that embed randomness (e.g. the
// random break-edge policy) stay deterministic per seed.
type Variant struct {
	Name string
	// Tag is a free-form scalar the variant can carry for its metric
	// functions (e.g. the dwell time of a dwell-sensitivity variant).
	Tag float64
	// Make builds the algorithm for one replication.
	Make func(src *xrand.Source) patrol.Algorithm
	// Options, when non-nil, adjusts the per-run simulation options
	// after the Spec-level Options hook.
	Options func(o *patrol.Options)
}

// Algo wraps a fixed, seed-independent algorithm as a Variant. The
// algorithm must be safe for concurrent Run calls (all planners in
// this repository are).
func Algo(name string, alg patrol.Algorithm) Variant {
	return Variant{Name: name, Make: func(*xrand.Source) patrol.Algorithm { return alg }}
}

// Env is what a metric function sees: one finished replication of one
// cell. Scenario and Result are valid only while the metric functions
// run: they live in the worker's run scratch, which its next
// replication overwrites once every metric has been read, so a metric
// must not keep them or anything read from them. A vector may return a
// slice of one of the recorder's logs; the engine copies what a vector
// returns.
type Env struct {
	Point    Point
	Variant  Variant
	Seed     uint64
	Scenario *field.Scenario
	Result   *patrol.Result
	// Fleet is the cell's materialized fleet configuration (the
	// Fleets-axis fleet, or the homogeneous fleet implied by the
	// point's Mules × Speed), giving metrics per-mule speeds that
	// patrol.Result does not carry.
	Fleet scenario.Fleet
	// Data is the cell's data-workload overlay with the replication's
	// delivery statistics: the Workloads-axis overlay when the cell's
	// workload is enabled, else the first scenario-declared overlay,
	// else nil.
	Data *wsn.Network
}

// Warm returns the conventional warm-up cutoff for steady-state
// metrics: just after the synchronized patrol start.
func (e Env) Warm() float64 { return e.Result.PatrolStart + 1 }

// MuleSpeed returns mule i's speed: the fleet member's speed when the
// cell declares one, else the point's homogeneous speed, else the
// patrol default of 2 m/s.
func (e Env) MuleSpeed(i int) float64 {
	if i >= 0 && i < e.Fleet.Size() && e.Fleet.Mules[i].Speed > 0 {
		return e.Fleet.Mules[i].Speed
	}
	if e.Point.Speed > 0 {
		return e.Point.Speed
	}
	return 2
}

// Metric is a named scalar extracted from every replication and
// aggregated per cell.
type Metric struct {
	Name string
	Fn   func(Env) float64
}

// VectorMetric is a named fixed-capacity vector extracted from every
// replication and aggregated elementwise per cell. Fn may return fewer
// than Len elements (e.g. a run with fewer visits); each position
// aggregates the replications that reach it.
type VectorMetric struct {
	Name string
	Len  int
	Fn   func(Env) []float64
}

// Adaptive configures per-cell early stopping: a cell stops
// replicating once the watched scalar metric's CI95 half-width shrinks
// to RelCI times the magnitude of its running mean (a zero-variance
// cell therefore stops at MinReps). Replications still fold strictly
// in seed order, so the stopping replication count of every cell is a
// deterministic function of the spec alone — independent of worker
// count and of checkpoint/resume boundaries.
type Adaptive struct {
	// Metric names the watched scalar metric; it must appear in
	// Spec.Metrics.
	Metric string
	// RelCI is the relative CI95 target (e.g. 0.05 stops a cell once
	// the half-width is within 5% of the mean's magnitude).
	RelCI float64
	// MinReps is the floor before stopping is considered (default 5,
	// minimum 2 — a single replication has no variance estimate).
	MinReps int
	// MaxReps caps the replications per cell (default Spec.Seeds).
	MaxReps int
}

func (a *Adaptive) withDefaults(seeds int) *Adaptive {
	d := *a
	if d.MaxReps == 0 {
		d.MaxReps = seeds
	}
	if d.MinReps == 0 {
		// Only the defaulted floor is clamped to the cap; an explicit
		// MinReps > MaxReps is a validation error, not a silent clamp.
		d.MinReps = 5
		if d.MinReps > d.MaxReps {
			d.MinReps = d.MaxReps
		}
	}
	return &d
}

// converged reports whether the watched accumulator satisfies the
// relative CI95 target.
func (a *Adaptive) converged(acc *stats.Accumulator) bool {
	return acc.CI95() <= a.RelCI*math.Abs(acc.Mean())
}

// Spec declares a sweep: the axes, the metrics, the protocol, and
// optional hooks. The zero value of every axis means "the single
// default value", so a Spec only spells out what it sweeps.
type Spec struct {
	// Name labels the sweep in sink output.
	Name string

	// Axes. The cartesian product of all axes yields the cells,
	// enumerated with Algorithms outermost and Workloads innermost.
	Algorithms []Variant // required: at least one variant
	Targets    []int     // default {20}
	Mules      []int     // default {4}
	Speeds     []float64 // default {2} (m/s, §5.1)
	// Fleets, when non-empty, replaces the Mules × Speeds axes with
	// named (possibly heterogeneous) fleets; Mules and Speeds must
	// then stay empty.
	Fleets     []scenario.Fleet
	Placements []field.Placement // default {field.Uniform}
	Horizons   []float64         // default {100_000} (s)
	Battery    []bool            // default {false}
	VIPs       []int             // default {0} (no VIPs)
	VIPWeights []int             // default {2}; ignored while VIPs is 0
	// Workloads is the data-workload axis; the zero Workload (empty
	// name) means "no workload" and is the single default value.
	Workloads []scenario.Workload
	// Partitions is the target-partition axis (partitioner × k ×
	// allocation policy); the zero Partition means "no partitioning"
	// and is the single default value.
	Partitions []Partition
	// Failures is the failure-injection axis (rate × handoff policy);
	// the zero Failure means the static world and is the single
	// default value.
	Failures []Failure

	// Metrics and Vectors are extracted from every replication; at
	// least one of the two must be non-empty.
	Metrics []Metric
	Vectors []VectorMetric

	// Seeds is the number of replications per cell (default 20, the
	// paper's protocol). With Adaptive set it is the default MaxReps.
	Seeds int
	// Adaptive, when non-nil, enables per-cell early stopping; cells
	// then run between Adaptive.MinReps and Adaptive.MaxReps
	// replications instead of exactly Seeds.
	Adaptive *Adaptive
	// ConfigDigest is extra identity folded into the checkpoint
	// fingerprint. Hooks (Configure, Options, Scenario) cannot be
	// hashed, so a caller whose hooks close over external configuration
	// — a preset's field geometry, a scenario file — must serialize
	// that configuration here, or Resume would accept a checkpoint
	// written under different hook behavior.
	ConfigDigest string
	// BaseSeed offsets the replication seeds.
	BaseSeed uint64
	// Workers bounds the worker pool (default GOMAXPROCS). The pool is
	// shared by all cells: cells and replications run concurrently.
	Workers int

	// Skip, when non-nil, is consulted per cell; a non-empty reason
	// excludes the cell from execution and records it in the Result.
	Skip func(p Point) (reason string)
	// Configure, when non-nil, adjusts the declarative scenario
	// derived from the point before it is materialized — field
	// geometry, cluster parameters, recharge station, extra
	// workloads. It is not invoked when Scenario replaces
	// materialization outright.
	Configure func(p Point, sc *scenario.Scenario)
	// Options, when non-nil, adjusts the patrol.Options derived from
	// the point (before the Variant's own Options hook). Appending to
	// o.Observers attaches extra per-replication observers.
	Options func(p Point, o *patrol.Options)
	// Scenario, when non-nil, replaces the default generator entirely.
	Scenario func(p Point, src *xrand.Source) *field.Scenario
	// Progress, when non-nil, is called after every completed
	// replication and cell. It runs under the engine lock: keep it
	// fast and do not call back into the engine. Totals are job-local:
	// a shard reports its own cells.
	Progress func(pr Progress)
}

func (s Spec) withDefaults() Spec {
	if len(s.Targets) == 0 {
		s.Targets = []int{20}
	}
	if len(s.Fleets) == 0 {
		if len(s.Mules) == 0 {
			s.Mules = []int{4}
		}
		if len(s.Speeds) == 0 {
			s.Speeds = []float64{2}
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []scenario.Workload{{}}
	}
	if len(s.Partitions) == 0 {
		s.Partitions = []Partition{{}}
	}
	if len(s.Failures) == 0 {
		s.Failures = []Failure{{}}
	}
	if len(s.Placements) == 0 {
		s.Placements = []field.Placement{field.Uniform}
	}
	if len(s.Horizons) == 0 {
		s.Horizons = []float64{100_000}
	}
	if len(s.Battery) == 0 {
		s.Battery = []bool{false}
	}
	if len(s.VIPs) == 0 {
		s.VIPs = []int{0}
	}
	if len(s.VIPWeights) == 0 {
		s.VIPWeights = []int{2}
	}
	if s.Seeds == 0 {
		s.Seeds = 20
	}
	if s.Workers == 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Adaptive != nil {
		s.Adaptive = s.Adaptive.withDefaults(s.Seeds)
	}
	return s
}

// maxReps is the per-cell replication ceiling: Seeds, or the adaptive
// cap when early stopping is on.
func (s *Spec) maxReps() int {
	if s.Adaptive != nil {
		return s.Adaptive.MaxReps
	}
	return s.Seeds
}

func (s *Spec) validate() error {
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("sweep: spec %q has no algorithm variants", s.Name)
	}
	for i, v := range s.Algorithms {
		if v.Name == "" {
			return fmt.Errorf("sweep: spec %q: variant %d has no name", s.Name, i)
		}
		if v.Make == nil {
			return fmt.Errorf("sweep: spec %q: variant %q has no Make", s.Name, v.Name)
		}
	}
	if len(s.Metrics)+len(s.Vectors) == 0 {
		return fmt.Errorf("sweep: spec %q declares no metrics", s.Name)
	}
	for _, vm := range s.Vectors {
		if vm.Len <= 0 {
			return fmt.Errorf("sweep: spec %q: vector metric %q has length %d",
				s.Name, vm.Name, vm.Len)
		}
	}
	if s.Seeds < 1 {
		return fmt.Errorf("sweep: spec %q has %d replications", s.Name, s.Seeds)
	}
	if a := s.Adaptive; a != nil {
		if a.RelCI <= 0 {
			return fmt.Errorf("sweep: spec %q: adaptive RelCI %g must be positive", s.Name, a.RelCI)
		}
		if a.MinReps < 2 {
			return fmt.Errorf("sweep: spec %q: adaptive MinReps %d < 2", s.Name, a.MinReps)
		}
		if a.MaxReps < a.MinReps {
			return fmt.Errorf("sweep: spec %q: adaptive MaxReps %d < MinReps %d",
				s.Name, a.MaxReps, a.MinReps)
		}
		found := false
		for _, m := range s.Metrics {
			if m.Name == a.Metric {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sweep: spec %q: adaptive metric %q is not a declared scalar metric",
				s.Name, a.Metric)
		}
	}
	if s.Workers < 1 {
		// withDefaults maps 0 to GOMAXPROCS, so only a negative value
		// lands here; without this check Run would spawn no workers
		// and block forever on the jobs channel.
		return fmt.Errorf("sweep: spec %q has %d workers", s.Name, s.Workers)
	}
	for _, n := range s.VIPs {
		if n > 0 {
			for _, w := range s.VIPWeights {
				if w < 2 {
					return fmt.Errorf("sweep: spec %q sweeps %d VIPs with weight %d < 2",
						s.Name, n, w)
				}
			}
			break
		}
	}
	if len(s.Fleets) > 0 {
		if len(s.Mules) > 0 || len(s.Speeds) > 0 {
			return fmt.Errorf("sweep: spec %q mixes the Fleets axis with Mules/Speeds", s.Name)
		}
		names := map[string]bool{}
		for i, f := range s.Fleets {
			if f.Name == "" {
				return fmt.Errorf("sweep: spec %q: fleet %d has no name", s.Name, i)
			}
			if names[f.Name] {
				return fmt.Errorf("sweep: spec %q: duplicate fleet %q", s.Name, f.Name)
			}
			names[f.Name] = true
			if f.Size() == 0 {
				return fmt.Errorf("sweep: spec %q: fleet %q is empty", s.Name, f.Name)
			}
			for _, m := range f.Mules {
				if m.Speed <= 0 {
					return fmt.Errorf("sweep: spec %q: fleet %q has a mule with speed %g",
						s.Name, f.Name, m.Speed)
				}
			}
		}
	}
	wnames := map[string]bool{}
	for _, w := range s.Workloads {
		if wnames[w.Name] {
			return fmt.Errorf("sweep: spec %q: duplicate workload %q on the axis", s.Name, w.Name)
		}
		wnames[w.Name] = true
	}
	pnames := map[string]bool{}
	for _, p := range s.Partitions {
		if pnames[p.name()] {
			return fmt.Errorf("sweep: spec %q: duplicate partition %q on the axis", s.Name, p)
		}
		pnames[p.name()] = true
		if p.Enabled() {
			if _, err := p.Config(); err != nil {
				return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
			}
		}
	}
	fnames := map[string]bool{}
	for _, f := range s.Failures {
		if fnames[f.name()] {
			return fmt.Errorf("sweep: spec %q: duplicate failure %q on the axis", s.Name, f)
		}
		fnames[f.name()] = true
		if f.Rate < 0 || f.Rate > 1 {
			return fmt.Errorf("sweep: spec %q: failure rate %g outside [0,1]", s.Name, f.Rate)
		}
		if _, err := f.Policy(); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	return nil
}

// fleetChoice is one value of the fleet dimension: either a (size,
// speed) pair from the Mules × Speeds cross, or a named fleet from
// the Fleets axis.
type fleetChoice struct {
	name  string
	mules int
	speed float64 // 0 for a mixed-speed fleet
	fleet scenario.Fleet
}

// fleetChoices enumerates the fleet dimension in canonical order.
func (s *Spec) fleetChoices() []fleetChoice {
	if len(s.Fleets) > 0 {
		out := make([]fleetChoice, len(s.Fleets))
		for i, f := range s.Fleets {
			// A fleet of uniform speed reports that speed even when
			// mules carry individual batteries; 0 means mixed speeds.
			out[i] = fleetChoice{name: f.Name, mules: f.Size(), speed: f.CommonSpeed(), fleet: f}
		}
		return out
	}
	out := make([]fleetChoice, 0, len(s.Mules)*len(s.Speeds))
	for _, nm := range s.Mules {
		for _, sp := range s.Speeds {
			out = append(out, fleetChoice{mules: nm, speed: sp})
		}
	}
	return out
}

// cellDef pairs a point with the axis values that cannot ride on the
// (comparable) point itself: the variant, the full fleet, the
// workload, and the partition configuration.
type cellDef struct {
	point     Point
	variant   Variant
	fleet     scenario.Fleet
	workload  scenario.Workload
	partition Partition
	failure   Failure
	// enc is the point's JSON encoding and axes the fleet, workload
	// and failure members of the cell identity, both filled by
	// encodeCells at plan time (see cellkey.go).
	enc  []byte
	axes []byte
}

// MaxPlanCells bounds the cells one plan may enumerate, skipped cells
// included. A sweep request of a few hundred bytes can name an axis
// product of millions of cells; Plan refuses it before allocating
// anything.
const MaxPlanCells = 1 << 16

// GridCells returns the number of cells the spec's axes span before
// skipping: the product of its axis lengths, an empty axis counting as
// its one default. A product that overflows int saturates at
// math.MaxInt.
func (s Spec) GridCells() int {
	sp := s.withDefaults()
	axes := []int{
		len(sp.Algorithms), len(sp.Targets), len(sp.Placements),
		len(sp.Horizons), len(sp.Battery), len(sp.VIPs), len(sp.VIPWeights),
		len(sp.Workloads), len(sp.Partitions), len(sp.Failures),
	}
	if len(sp.Fleets) > 0 {
		axes = append(axes, len(sp.Fleets))
	} else {
		axes = append(axes, len(sp.Mules), len(sp.Speeds))
	}
	n := 1
	for _, l := range axes {
		if l > 0 && n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// cells enumerates the cartesian product in canonical order
// (Algorithms outermost, Failures innermost). Plan bounds its size
// first.
func (s *Spec) cells() []cellDef {
	fleets := s.fleetChoices()
	out := make([]cellDef, 0, s.GridCells())
	for _, v := range s.Algorithms {
		for _, nt := range s.Targets {
			for _, fc := range fleets {
				for _, pl := range s.Placements {
					for _, h := range s.Horizons {
						for _, b := range s.Battery {
							for _, nv := range s.VIPs {
								for _, w := range s.VIPWeights {
									for _, wl := range s.Workloads {
										for _, pa := range s.Partitions {
											for _, fa := range s.Failures {
												out = append(out, cellDef{
													point: Point{
														Algorithm: v.Name,
														Targets:   nt,
														Mules:     fc.mules,
														Speed:     fc.speed,
														Fleet:     fc.name,
														Placement: pl,
														Horizon:   h,
														Battery:   b,
														VIPs:      nv,
														VIPWeight: w,
														Workload:  wl.Name,
														Partition: pa.name(),
														Failure:   fa.name(),
													},
													variant:   v,
													fleet:     fc.fleet,
													workload:  wl,
													partition: pa,
													failure:   fa,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// cellScenario derives the declarative scenario of a cell: the point's
// axis values translated to the scenario model, then adjusted by the
// Spec's Configure hook. The axis workload is appended after Configure
// so hook-declared workloads keep their positions.
func (s *Spec) cellScenario(d cellDef) *scenario.Scenario {
	p := d.point
	sc := &scenario.Scenario{
		Field:   scenario.Field{Placement: p.Placement},
		Targets: scenario.Targets{Count: p.Targets, VIPs: p.VIPs, VIPWeight: p.VIPWeight},
		Fleet:   d.fleet,
		Horizon: p.Horizon,
	}
	if sc.Fleet.Size() == 0 {
		sc.Fleet = scenario.Homogeneous(p.Mules, p.Speed)
	}
	// Configure adjusts the scenario about to be materialized; when the
	// Spec's bespoke generator replaces materialization there is
	// nothing for it to adjust, so it is skipped (matching the
	// pre-scenario engine, which never invoked it on that path).
	if s.Configure != nil && s.Scenario == nil {
		s.Configure(p, sc)
	}
	if d.workload.Enabled() {
		sc.Workloads = append(sc.Workloads, d.workload)
	}
	return sc
}
