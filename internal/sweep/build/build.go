// Package build translates a transport-neutral sweep request
// (protocol.SweepRequest) into an executable sweep.Spec. It is the
// single Spec builder shared by the tctp-sweep CLI (whose flags the
// request mirrors one-for-one) and the tctp-server daemon, so a sweep
// submitted over HTTP plans exactly the grid the same flags would
// plan locally — same axes, same defaults, same spec name, same
// fingerprint, and therefore byte-identical sink output.
//
// Zero-valued request fields mean "the default", matching the CLI's
// flag defaults: algorithms default to btctp, the workload knobs to
// the periodic-packet/burst defaults, seeds to 10, the horizon to the
// scenario's (or 60000 s). A request may name a built-in preset or
// carry an inline scenario document; paths are deliberately absent —
// a server never reads scenario files off its own disk.
package build

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/sweep/protocol"
	"tctp/internal/wsn"
)

// Algorithm resolves an algorithm axis name.
func Algorithm(name string) (patrol.Algorithm, error) {
	switch name {
	case "btctp":
		return patrol.Planned(&core.BTCTP{}), nil
	case "wtctp":
		return patrol.Planned(&core.WTCTP{}), nil
	case "chb":
		return patrol.Planned(&baseline.CHB{}), nil
	case "sweep":
		return patrol.Planned(&baseline.Sweep{}), nil
	case "random":
		return patrol.Online(&baseline.Random{}), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// list parses the sep-separated values of s, each trimmed of spaces,
// with parse. A value parse refuses fails the list with parse's error
// or, when bad names the value's kind, with "bad <kind> <value>".
func list[T any](s, sep, bad string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, sep)
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil && bad != "" {
			err = fmt.Errorf("bad %s %q", bad, p)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloat parses one float axis value.
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// workloads maps the request's off/on/bursts/priority axis values to
// workloads; "on" is the periodic packet workload parameterized by
// the workload knobs, "bursts" the event-driven Poisson-burst
// workload parameterized by the burst knobs, and "priority" the
// periodic workload with priority-split delivery statistics (VIP
// origins are high-priority). The request must already carry its
// defaults (see withDefaults).
func workloads(req protocol.SweepRequest) ([]scenario.Workload, error) {
	var out []scenario.Workload
	for _, p := range strings.Split(req.Workloads, ",") {
		switch strings.TrimSpace(p) {
		case "off":
			out = append(out, scenario.Workload{})
		case "on":
			out = append(out, scenario.Workload{Name: "packets", Data: wsn.Config{
				GenInterval: req.WorkloadGen,
				BufferCap:   req.WorkloadBuffer,
				Deadline:    req.WorkloadDeadline,
			}})
		case "bursts":
			out = append(out, scenario.Workload{
				Name: "bursts", Kind: scenario.KindBursts,
				Bursts: &wsn.BurstConfig{
					Hot:       req.BurstHot,
					MeanGap:   req.BurstGap,
					Size:      req.BurstSize,
					BufferCap: req.WorkloadBuffer,
					Deadline:  req.WorkloadDeadline,
				},
			})
		case "priority":
			out = append(out, scenario.Workload{
				Name: "priority", Kind: scenario.KindPriority,
				Data: wsn.Config{
					GenInterval: req.WorkloadGen,
					BufferCap:   req.WorkloadBuffer,
					Deadline:    req.WorkloadDeadline,
				},
			})
		default:
			return nil, fmt.Errorf("unknown workload %q (valid: off, on, bursts, priority)", p)
		}
	}
	return out, nil
}

// adaptive decodes "metric:relci[:min[:max]]" into the engine's
// adaptive-replication config.
func adaptive(s string) (*sweep.Adaptive, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return nil, fmt.Errorf("bad adaptive spec %q (want metric:relci[:min[:max]])", s)
	}
	a := &sweep.Adaptive{Metric: parts[0]}
	var err error
	if a.RelCI, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return nil, fmt.Errorf("bad adaptive relative CI %q", parts[1])
	}
	if len(parts) > 2 {
		if a.MinReps, err = strconv.Atoi(parts[2]); err != nil {
			return nil, fmt.Errorf("bad adaptive min reps %q", parts[2])
		}
	}
	if len(parts) > 3 {
		if a.MaxReps, err = strconv.Atoi(parts[3]); err != nil {
			return nil, fmt.Errorf("bad adaptive max reps %q", parts[3])
		}
	}
	return a, nil
}

// withDefaults fills zero-valued request fields with the CLI's flag
// defaults, so a sparse JSON request and a bare `tctp-sweep` invocation
// mean the same sweep.
func withDefaults(req protocol.SweepRequest) protocol.SweepRequest {
	if req.Algorithms == "" {
		req.Algorithms = "btctp"
	}
	if req.WorkloadGen == 0 {
		req.WorkloadGen = 60
	}
	if req.WorkloadBuffer == 0 {
		req.WorkloadBuffer = 50
	}
	if req.WorkloadDeadline == 0 {
		req.WorkloadDeadline = 3600
	}
	if req.BurstGap == 0 {
		req.BurstGap = 1800
	}
	if req.BurstSize == 0 {
		req.BurstSize = 10
	}
	if req.Seeds == 0 {
		req.Seeds = 10
	}
	return req
}

// baseScenario resolves the request's preset or inline scenario
// document (at most one may be set) to a validated scenario, or nil
// when neither is given.
func baseScenario(req protocol.SweepRequest) (*scenario.Scenario, error) {
	if req.Preset != "" && len(req.Scenario) != 0 {
		return nil, fmt.Errorf("preset conflicts with an inline scenario: both supply the base scenario")
	}
	if req.Preset != "" {
		return scenario.Preset(req.Preset)
	}
	if len(req.Scenario) == 0 {
		return nil, nil
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(req.Scenario, &sc); err != nil {
		return nil, fmt.Errorf("scenario document: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario document: %w", err)
	}
	return &sc, nil
}

// applyDefaults resolves empty axis fields against the built-in
// defaults or, when a preset/scenario is given, the scenario's values.
func applyDefaults(req protocol.SweepRequest) (protocol.SweepRequest, *scenario.Scenario, error) {
	ps, err := baseScenario(req)
	if err != nil {
		return req, nil, err
	}
	if req.Targets == "" {
		req.Targets = "10,20,30,40,50"
		if ps != nil {
			req.Targets = strconv.Itoa(ps.Targets.Count)
		}
	}
	if req.Mules == "" && req.Fleets == "" {
		switch {
		case ps == nil:
			req.Mules = "2,4,6,8"
		case ps.Fleet.CommonSpeed() > 0:
			req.Mules = strconv.Itoa(ps.Fleet.Size())
		default:
			// A mixed-speed scenario fleet cannot collapse to a size;
			// Spec routes the whole fleet onto the Fleets axis.
		}
	}
	if req.Speeds == "" && req.Fleets == "" {
		req.Speeds = "2"
		if ps != nil {
			if sp := ps.Fleet.CommonSpeed(); sp > 0 {
				req.Speeds = strconv.FormatFloat(sp, 'g', -1, 64)
			}
		}
	}
	if req.Placements == "" {
		req.Placements = "uniform"
		if ps != nil {
			req.Placements = ps.Field.Placement.String()
		}
	}
	if req.Workloads == "" {
		req.Workloads = "off"
	}
	if req.Horizon == 0 {
		req.Horizon = 60_000
		if ps != nil {
			req.Horizon = ps.Horizon
		}
	}
	return req, ps, nil
}

// Spec translates a request into an executable sweep.Spec. The spec's
// name is fixed ("tctp-sweep") so requests and local CLI runs agree on
// sink output byte-for-byte.
func Spec(req protocol.SweepRequest) (sweep.Spec, error) {
	var spec sweep.Spec
	req, preset, err := applyDefaults(withDefaults(req))
	if err != nil {
		return spec, err
	}
	spec.Algorithms, err = list(req.Algorithms, ",", "", func(name string) (sweep.Variant, error) {
		alg, err := Algorithm(name)
		return sweep.Algo(name, alg), err
	})
	if err != nil {
		return spec, err
	}
	if spec.Targets, err = list(req.Targets, ",", "integer", strconv.Atoi); err != nil {
		return spec, err
	}
	switch {
	case req.Fleets != "":
		if req.Mules != "" || req.Speeds != "" {
			return spec, fmt.Errorf("fleets conflicts with mules/speeds: the fleet axis already fixes sizes and speeds")
		}
		if spec.Fleets, err = list(req.Fleets, ";", "", scenario.ParseFleet); err != nil {
			return spec, err
		}
	case req.Mules == "" && preset != nil:
		// Mixed-speed scenario fleet: sweep it as a named fleet.
		fleet := preset.Fleet
		if fleet.Name == "" {
			fleet.Name = preset.Name
		}
		if fleet.Name == "" {
			fleet.Name = "scenario" // unnamed inline scenario
		}
		spec.Fleets = []scenario.Fleet{fleet}
	default:
		if spec.Mules, err = list(req.Mules, ",", "integer", strconv.Atoi); err != nil {
			return spec, err
		}
		if spec.Speeds, err = list(req.Speeds, ",", "number", parseFloat); err != nil {
			return spec, err
		}
	}
	if spec.Placements, err = list(req.Placements, ",", "", field.ParsePlacement); err != nil {
		return spec, err
	}
	if preset != nil && preset.Targets.VIPs > 0 {
		// The scenario's VIP population rides the (singleton) VIP axis,
		// so priority workloads and weighted planners see the declared
		// Very Important Points.
		spec.VIPs = []int{preset.Targets.VIPs}
		spec.VIPWeights = []int{preset.Targets.VIPWeight}
	}
	if spec.Workloads, err = workloads(req); err != nil {
		return spec, err
	}
	if req.Partition != "" {
		if spec.Partitions, err = list(req.Partition, ",", "", sweep.ParsePartition); err != nil {
			return spec, err
		}
	}
	if req.Failures != "" {
		if spec.Failures, err = list(req.Failures, ",", "", sweep.ParseFailure); err != nil {
			return spec, err
		}
	}
	if req.Handoff != "" {
		// The request-level handoff is the default policy: it fills in
		// for enabled failure values that do not name their own, so
		// `-failures 0.5 -handoff absorb` and `-failures 0.5:absorb`
		// plan the same cell.
		if _, err := patrol.ParseHandoff(req.Handoff); err != nil {
			return spec, err
		}
		for i, fa := range spec.Failures {
			if fa.Enabled() && fa.Handoff == "" {
				spec.Failures[i].Handoff = req.Handoff
			}
		}
	}
	for _, nt := range spec.Targets {
		if nt < 1 {
			return spec, fmt.Errorf("target count %d < 1", nt)
		}
	}
	for _, nm := range spec.Mules {
		if nm < 1 {
			return spec, fmt.Errorf("fleet size %d < 1", nm)
		}
	}
	for _, sp := range spec.Speeds {
		if sp <= 0 {
			return spec, fmt.Errorf("speed %g must be positive", sp)
		}
	}
	if req.Seeds < 1 {
		return spec, fmt.Errorf("seeds %d < 1", req.Seeds)
	}
	if req.Horizon <= 0 {
		return spec, fmt.Errorf("horizon %g must be positive", req.Horizon)
	}
	if req.Adaptive != "" {
		if spec.Adaptive, err = adaptive(req.Adaptive); err != nil {
			return spec, err
		}
	}
	spec.Name = "tctp-sweep"
	spec.Horizons = []float64{req.Horizon}
	spec.Seeds = req.Seeds
	spec.BaseSeed = req.BaseSeed
	spec.Workers = req.Workers
	if preset != nil {
		// The scenario supplies the field geometry (dimensions, cluster
		// parameters, recharge station) and any declared event schedule;
		// the axes keep the placement.
		presetField := preset.Field
		presetEvents := preset.Events
		spec.Configure = func(p sweep.Point, sc *scenario.Scenario) {
			placement := sc.Field.Placement
			sc.Field = presetField
			sc.Field.Placement = placement
			sc.Events = presetEvents
		}
		// The Configure closure is invisible to the checkpoint
		// fingerprint; serialize what it applies so resuming (or
		// cache-keying) under an edited scenario is refused. Event-free
		// scenarios keep the bare-field digest so their cache keys are
		// unchanged from before the dynamic-world layer existed.
		var digest []byte
		if presetEvents == nil {
			digest, err = json.Marshal(presetField)
		} else {
			digest, err = json.Marshal(struct {
				Field  scenario.Field   `json:"field"`
				Events *scenario.Events `json:"events"`
			}{presetField, presetEvents})
		}
		if err != nil {
			return spec, err
		}
		spec.ConfigDigest = string(digest)
	}
	spec.Metrics = []sweep.Metric{
		sweep.AvgDCDT(), sweep.AvgSD(), sweep.MaxInterval(), sweep.JoulesPerVisit(),
	}
	for _, w := range spec.Workloads {
		if w.Enabled() {
			spec.Metrics = append(spec.Metrics,
				sweep.Delivered(), sweep.OnTimePct(), sweep.MeanLatency())
			break
		}
	}
	// A priority workload on the axis additionally reports the
	// per-class delivery split.
	for _, w := range spec.Workloads {
		if w.Kind == scenario.KindPriority {
			spec.Metrics = append(spec.Metrics,
				sweep.DeliveredHigh(), sweep.MeanLatencyHigh(), sweep.MeanLatencyLow())
			break
		}
	}
	if req.Quality {
		spec.Metrics = append(spec.Metrics, sweep.Quality()...)
	}
	// Dynamic-world cells — an enabled failure axis value or a
	// scenario-declared event schedule — additionally report the
	// degraded-mode coverage metrics.
	failuresOn := false
	for _, fa := range spec.Failures {
		if fa.Enabled() {
			failuresOn = true
			break
		}
	}
	dynamic := failuresOn || (preset != nil && preset.Events.Enabled())
	if dynamic {
		spec.Metrics = append(spec.Metrics, sweep.CoverageGap(), sweep.TimeToRecover())
	}
	// With an enabled partition on the axis, report the group count and
	// the per-group DCDT/SD columns (group_dcdt_s_1..k,
	// group_sd_s_1..k); single-circuit cells fill only position 1.
	partitionK := map[string]int{}
	var probeCfg core.PartitionConfig
	maxK := 0
	for _, pa := range spec.Partitions {
		if !pa.Enabled() {
			continue
		}
		partitionK[pa.String()] = pa.K
		if pa.K > maxK {
			maxK = pa.K
			probeCfg, _ = pa.Config() // sweep.ParsePartition already validated
		}
	}
	// Partitioned cells of algorithms without a partitioned variant are
	// skipped, not failed, so mixed-algorithm grids stay usable. The
	// capability is probed from the algorithm itself (core.Partitionable
	// via patrol.Partitioned), not a name list, so planners gaining a
	// partitioned form are picked up automatically.
	partitionable := map[string]bool{}
	if maxK > 0 {
		spec.Metrics = append(spec.Metrics, sweep.GroupCount())
		spec.Vectors = append(spec.Vectors, sweep.GroupDCDT(maxK), sweep.GroupSD(maxK))
		if dynamic {
			spec.Vectors = append(spec.Vectors,
				sweep.GroupDCDTPostFailure(maxK), sweep.GroupSDPostFailure(maxK))
		}
		for _, v := range spec.Algorithms {
			_, perr := patrol.Partitioned(v.Make(nil), probeCfg, nil)
			partitionable[v.Name] = perr == nil
		}
	}
	// Spawn events create dormant targets that only plan-based
	// algorithms can fold in via a replan; online walkers would chase
	// targets that do not exist yet. Probe the capability from the
	// algorithm itself, mirroring the partitionable probe above.
	spawns := false
	if preset != nil && preset.Events.Enabled() {
		for _, ev := range preset.Events.Schedule {
			if ev.Kind == scenario.EventTargetSpawn {
				spawns = true
				break
			}
		}
	}
	plannable := map[string]bool{}
	if spawns {
		for _, v := range spec.Algorithms {
			plannable[v.Name] = patrol.Plannable(v.Make(nil))
		}
	}
	spec.Skip = func(p sweep.Point) string {
		if p.Mules > p.Targets+1 {
			return "sweep needs at least one target per mule"
		}
		if spawns && !plannable[p.Algorithm] {
			return "algorithm cannot plan dormant spawn targets"
		}
		if p.Partition != "" {
			if !partitionable[p.Algorithm] {
				return "algorithm has no partitioned variant"
			}
			if k := partitionK[p.Partition]; p.Mules < k {
				return fmt.Sprintf("partition %s needs at least %d mules", p.Partition, k)
			} else if k > p.Targets+1 {
				return fmt.Sprintf("partition %s exceeds the %d targets", p.Partition, p.Targets+1)
			}
		}
		return ""
	}
	return spec, nil
}
