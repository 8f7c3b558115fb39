// Package tctp reproduces "Patrolling Mechanisms for Disconnected
// Targets in Wireless Mobile Data Mules Networks" (Chang, Lin, Hsieh,
// Ho; ICPP 2011) as a Go library.
//
// The package is a facade over the implementation in internal/: it
// re-exports the scenario model, the three TCTP planners (B-TCTP,
// W-TCTP, RW-TCTP), the paper's baselines (Random, Sweep, CHB), the
// simulation runner, and the experiment registry that regenerates
// every figure of the paper's evaluation.
//
// Quickstart:
//
//	s := tctp.GenerateScenario(tctp.ScenarioConfig{NumTargets: 20, NumMules: 4}, 1)
//	res, err := tctp.Run(s, &tctp.BTCTP{}, tctp.Options{Horizon: 50_000}, 1)
//	// res.Recorder has per-target visiting intervals; for B-TCTP the
//	// steady-state SD is zero.
//
// See the runnable programs under examples/ and the experiment CLI
// under cmd/tctp-experiments.
package tctp

import (
	"context"
	"io"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/experiment"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/metrics"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/viz"
	"tctp/internal/walk"
	"tctp/internal/wsn"
	"tctp/internal/xrand"
)

// Scenario and workload types.
type (
	// Scenario is a problem instance: field, targets, sink, recharge
	// station, mule start positions.
	Scenario = field.Scenario
	// ScenarioConfig parameterizes GenerateScenario.
	ScenarioConfig = field.Config
	// Target is one point of interest with its weight.
	Target = field.Target
	// Point is a planar location in metres.
	Point = geom.Point
	// Walk is a closed walk over target indices (the patrolling path
	// representation; VIPs occur as often as their weight).
	Walk = walk.Walk
)

// Target placements for ScenarioConfig.Placement.
const (
	// Uniform scatters targets uniformly (the paper's §5.1 model).
	Uniform = field.Uniform
	// Clusters scatters targets over disconnected areas (the paper's
	// motivating deployment).
	Clusters = field.Clusters
	// Grid lays targets on a regular lattice (deterministic).
	Grid = field.Grid
	// Corridor confines targets to a narrow central band.
	Corridor = field.Corridor
	// Hotspot concentrates targets in one dense disc.
	Hotspot = field.Hotspot
)

// Declarative scenario layer re-exports: a JSON-round-trippable
// description of field, targets, fleet, horizon and workloads, with a
// validating builder and named presets (see internal/scenario).
type (
	// ScenarioSpec is the declarative scenario model. Materialize it
	// into a concrete Scenario, or call its Run method directly.
	ScenarioSpec = scenario.Scenario
	// ScenarioBuilder assembles a ScenarioSpec fluently.
	ScenarioBuilder = scenario.Builder
	// FleetSpec is a (possibly heterogeneous) mule fleet.
	FleetSpec = scenario.Fleet
	// MuleSpec is one fleet member (speed, battery).
	MuleSpec = scenario.Mule
	// WorkloadSpec is a named data workload layered on a run.
	WorkloadSpec = scenario.Workload
	// ScenarioResult is a finished scenario run: patrol result plus
	// the workload overlays.
	ScenarioResult = scenario.Result
)

// NewScenario starts a builder for a named declarative scenario; the
// zero configuration is the paper's §5.1 world.
func NewScenario(name string) *ScenarioBuilder { return scenario.New(name) }

// ScenarioPreset returns a named preset scenario (paper51, clustered,
// corridor, hotspot).
func ScenarioPreset(name string) (*ScenarioSpec, error) { return scenario.Preset(name) }

// ScenarioPresets lists the preset names.
func ScenarioPresets() []string { return scenario.PresetNames() }

// HomogeneousFleet builds an n-mule fleet of identical speed.
func HomogeneousFleet(n int, speed float64) FleetSpec { return scenario.Homogeneous(n, speed) }

// ParseFleet parses a "COUNTxSPEED[@BATTERY]+..." fleet spec.
func ParseFleet(spec string) (FleetSpec, error) { return scenario.ParseFleet(spec) }

// RunScenario materializes the declarative scenario from the seed and
// executes the planner on it, attaching the declared workloads and any
// extra observers.
func RunScenario(sc *ScenarioSpec, p Planner, seed uint64, obs ...Observer) (*ScenarioResult, error) {
	return sc.Run(patrol.Planned(p), seed, obs...)
}

// RunScenarioRandom is RunScenario for the online Random baseline.
func RunScenarioRandom(sc *ScenarioSpec, seed uint64, obs ...Observer) (*ScenarioResult, error) {
	return sc.Run(patrol.Online(&baseline.Random{}), seed, obs...)
}

// Planner types: the paper's contribution plus the fixed-route
// baselines.
type (
	// Planner is the common planner interface.
	Planner = core.Planner
	// FleetPlan is a planner's output: walks, start points, per-mule
	// routes.
	FleetPlan = core.FleetPlan
	// BTCTP is the Basic TCTP planner (§II).
	BTCTP = core.BTCTP
	// WTCTP is the Weighted TCTP planner (§III).
	WTCTP = core.WTCTP
	// RWTCTP is the recharge-aware planner (§IV).
	RWTCTP = core.RWTCTP
	// BreakPolicy selects W-TCTP's break-edge rule.
	BreakPolicy = core.BreakPolicy
	// PatrolGroup is one patrol region of a plan: its own walk, start
	// points, member targets, and assigned mules. Single-circuit plans
	// carry exactly one; partitioned plans one per region.
	PatrolGroup = core.PatrolGroup
	// CBTCTP is the partitioned B-TCTP planner: k per-region circuits.
	CBTCTP = core.CBTCTP
	// CWTCTP is the partitioned W-TCTP planner: k per-region WPPs.
	CWTCTP = core.CWTCTP
	// PartitionConfig parameterizes the partitioned planner family
	// (method, region count, mule-allocation policy).
	PartitionConfig = core.PartitionConfig
	// PartitionMethod selects the target partitioner (k-means or
	// angular sectors).
	PartitionMethod = core.PartitionMethod
	// AllocPolicy selects how mules are shared among regions.
	AllocPolicy = core.AllocPolicy
	// CHB is the convex-hull baseline of Wu et al. (MDM'09).
	CHB = baseline.CHB
	// Sweep is the group-patrolling baseline of Cheng et al.
	// (IPDPS'08).
	Sweep = baseline.Sweep
	// Random is the online random-destination baseline.
	Random = baseline.Random
)

// Partition methods and allocation policies for the C-planners.
const (
	// KMeansMethod partitions targets with Lloyd's algorithm.
	KMeansMethod = core.KMeansMethod
	// SectorsMethod partitions targets into angular sectors.
	SectorsMethod = core.SectorsMethod
	// AllocByLength shares mules proportionally to region tour length.
	AllocByLength = core.AllocByLength
	// AllocByCount shares mules proportionally to region target count.
	AllocByCount = core.AllocByCount
)

// W-TCTP break-edge policies.
const (
	// ShortestLength minimizes total WPP length (Exp. 1).
	ShortestLength = core.ShortestLength
	// BalancingLength balances VIP cycle lengths (Exp. 2).
	BalancingLength = core.BalancingLength
	// RandomBreak picks random break edges (ablation control).
	RandomBreak = core.RandomBreak
)

// Simulation types.
type (
	// Options configures a simulation run (speed, energy, horizon,
	// per-mule fleet overrides, observers).
	Options = patrol.Options
	// Observer receives simulation events (visits, deaths,
	// recharges); register any number in Options.Observers.
	Observer = patrol.Observer
	// ObserverFuncs adapts individual callbacks to Observer.
	ObserverFuncs = patrol.ObserverFuncs
	// FleetMember overrides one mule's speed and battery, enabling
	// heterogeneous fleets via Options.Fleet.
	FleetMember = patrol.FleetMember
	// Result is a finished run: visit log, per-mule and per-group
	// stats.
	Result = patrol.Result
	// GroupStats summarizes one patrol group of a plan-based run.
	GroupStats = patrol.GroupStats
	// Recorder is the per-target visit log with the paper's metrics
	// (visiting intervals, DCDT, SD).
	Recorder = metrics.Recorder
	// EnergyModel carries the §5.1 energy constants.
	EnergyModel = energy.Model
	// EnergyAudit is an observer logging battery deaths and recharge
	// completions.
	EnergyAudit = energy.Audit
	// DataNetwork is the sensor data-collection overlay: nodes buffer
	// readings, mules carry them, the sink receives them; it tracks
	// delivery latency against a deadline. It implements Observer —
	// register it in Options.Observers.
	DataNetwork = wsn.Network
	// DataConfig parameterizes the data workload (generation rate,
	// buffer capacity, delivery deadline).
	DataConfig = wsn.Config
)

// NewEnergyAudit returns an empty energy audit observer.
func NewEnergyAudit() *EnergyAudit { return energy.NewAudit() }

// NewDataNetwork builds a data-collection overlay for the scenario.
func NewDataNetwork(s *Scenario, cfg DataConfig) *DataNetwork {
	return wsn.New(s, cfg)
}

// DefaultEnergy returns the paper's §5.1 energy constants
// (8.267 J/m, 0.075 J/s, 200 kJ battery).
func DefaultEnergy() EnergyModel { return energy.Default() }

// RandSource is the deterministic random source used by scenario
// mutators such as Scenario.AssignVIPs and by planners with random
// components.
type RandSource = xrand.Source

// NewRandSource returns a RandSource with the given seed.
func NewRandSource(seed uint64) *RandSource { return xrand.New(seed) }

// GenerateScenario builds a deterministic random scenario from the
// configuration and seed. It panics on a configuration it cannot
// place: no targets, no mules, or clusters that do not fit the field.
func GenerateScenario(cfg ScenarioConfig, seed uint64) *Scenario {
	s, err := field.Generate(cfg, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return s
}

// Run plans the scenario with the planner and simulates the fleet
// until opts.Horizon. The seed drives any algorithmic randomness.
func Run(s *Scenario, p Planner, opts Options, seed uint64) (*Result, error) {
	return patrol.Run(s, patrol.Planned(p), opts, xrand.New(seed))
}

// RunRandom simulates the online Random baseline on the scenario.
func RunRandom(s *Scenario, opts Options, seed uint64) (*Result, error) {
	return patrol.Run(s, patrol.Online(&baseline.Random{}), opts, xrand.New(seed))
}

// MapString renders the scenario (and, when a plan is given, every
// patrol group's walk — one glyph per group) as an ASCII map.
func MapString(s *Scenario, plan *FleetPlan, width, height int) string {
	return viz.MapPlan(s, plan, width, height)
}

// Experiment protocol re-exports: the registry regenerates every
// figure of the paper plus the ablations (see DESIGN.md §5).
type ExperimentParams = experiment.Params

// ExperimentNames lists the registered experiments
// (fig7, fig8, fig9, fig10, energy, a1-tour ... a5-traversal).
func ExperimentNames() []string { return experiment.Names() }

// RunExperiment executes a registered experiment and writes its
// rendered result to w.
func RunExperiment(name string, p ExperimentParams, w io.Writer) error {
	return experiment.Run(name, p, w)
}

// Sweep-engine re-exports: declarative parameter grids executed by one
// bounded worker pool with streaming aggregation (see internal/sweep).
type (
	// SweepSpec declares a parameter sweep: axes, metrics, protocol.
	SweepSpec = sweep.Spec
	// SweepPoint is one cell's parameter assignment.
	SweepPoint = sweep.Point
	// SweepVariant is one value of the algorithm axis.
	SweepVariant = sweep.Variant
	// SweepMetric is a named scalar extracted per replication.
	SweepMetric = sweep.Metric
	// SweepEnv is the per-replication context a metric function sees.
	SweepEnv = sweep.Env
	// SweepResult is a finished sweep: per-cell streaming aggregates.
	SweepResult = sweep.Result
	// SweepSink receives results as cells finish (CSV, JSONL, table).
	SweepSink = sweep.Sink
	// SweepAdaptive configures per-cell early stopping on a CI95
	// target.
	SweepAdaptive = sweep.Adaptive
	// SweepPartition is one value of the target-partition axis
	// (partitioner × k × allocation policy).
	SweepPartition = sweep.Partition
	// SweepJob is a planned sweep or one shard of it; Run it with
	// SweepRunOpts, or split it with Shard for distributed execution.
	SweepJob = sweep.Job
	// SweepRunOpts configures one SweepJob.Run (checkpoint path,
	// resume, sinks, progress).
	SweepRunOpts = sweep.RunOpts
	// SweepPartial is one shard's output: per-cell fold records that
	// MergeSweep fuses losslessly.
	SweepPartial = sweep.Partial
)

// SweepAlgo wraps a fixed algorithm as a variant of the algorithm
// axis.
func SweepAlgo(name string, p Planner) SweepVariant {
	return sweep.Algo(name, patrol.Planned(p))
}

// RunSweep executes the spec, streaming finished cells to the sinks in
// declaration order; output is bit-identical for any worker count.
func RunSweep(ctx context.Context, spec SweepSpec, sinks ...SweepSink) (*SweepResult, error) {
	return sweep.Run(ctx, spec, sinks...)
}

// PlanSweep validates the spec and enumerates its cells into an
// immutable job with a sha256 plan fingerprint. Job.Shard(i, n) splits
// the plan into contiguous deterministic cell ranges for distributed
// runs; Job.Run executes one job (or shard) with per-run options.
func PlanSweep(spec SweepSpec) (*SweepJob, error) { return sweep.Plan(spec) }

// MergeSweep fuses shard partials into the full sweep result,
// streaming cells to the sinks; the merged output is byte-identical to
// an unsharded RunSweep, and partials from a different spec
// (mismatched fingerprint) are refused.
func MergeSweep(spec SweepSpec, partials []*SweepPartial, sinks ...SweepSink) (*SweepResult, error) {
	return sweep.Merge(spec, partials, sinks...)
}

// LoadSweepPartial reads a shard's checkpoint file into a mergeable
// partial — the file a shard's Job.Run writes when SweepRunOpts names
// a checkpoint path.
func LoadSweepPartial(path string) (*SweepPartial, error) { return sweep.LoadPartial(path) }

// SweepCSV, SweepJSONL and SweepTable are the built-in sinks.
func SweepCSV(w io.Writer) SweepSink   { return sweep.CSV(w) }
func SweepJSONL(w io.Writer) SweepSink { return sweep.JSONL(w) }
func SweepTable(w io.Writer) SweepSink { return sweep.TextTable(w) }
