// Package scenario is the declarative scenario layer: a single,
// JSON-round-trippable description of everything a simulation run
// needs — the field geometry and target placement distribution, the
// target population with its VIP weights, the mule fleet with
// per-mule speed and battery, the horizon, and the data workloads
// layered on top. The paper's §5 experiments all assume one
// homogeneous world (uniform targets, identical 2 m/s mules); this
// package is where every other world is spelled out: clustered and
// hotspot layouts, mixed-speed fleets, packet workloads.
//
// A Scenario is pure data. Materialize turns it into a concrete
// field.Scenario deterministically from a random source, Attach wires
// its events and workload overlays into a run, and Run executes an
// algorithm on it end to end for one replication seed, drawing every
// random choice from the seed's Streams. The builder (New) and the
// named presets (Paper51, Clustered, Corridor, Hotspot) are the two
// ways to construct one; both validate.
package scenario

import (
	"encoding/json"
	"fmt"

	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/wsn"
	"tctp/internal/xrand"
)

// Field describes the monitoring region and how targets are laid out
// in it.
type Field struct {
	// Width and Height of the field in metres (defaults 800 × 800,
	// the paper's §5.1 region).
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	// Placement selects the target layout distribution.
	Placement field.Placement `json:"placement"`
	// NumClusters and ClusterRadius apply to the Clusters placement
	// (defaults 4 clusters of radius 80 m).
	NumClusters   int     `json:"num_clusters,omitempty"`
	ClusterRadius float64 `json:"cluster_radius,omitempty"`
	// Recharge adds a recharge station (RW-TCTP's extra stop).
	Recharge bool `json:"recharge,omitempty"`
}

// Targets describes the target population.
type Targets struct {
	// Count is the number of patrolled targets excluding the sink.
	Count int `json:"count"`
	// VIPs is how many targets are upgraded to Very Important Points
	// of weight VIPWeight (Definition 1); 0 means none.
	VIPs      int `json:"vips,omitempty"`
	VIPWeight int `json:"vip_weight,omitempty"`
}

// Mule is one fleet member.
type Mule struct {
	// Speed is the travel speed in m/s.
	Speed float64 `json:"speed"`
	// Battery is the battery capacity in joules; 0 leaves the mule
	// unconstrained (unless the run itself enables batteries).
	Battery float64 `json:"battery,omitempty"`
}

// Fleet is the data-mule fleet. Mules may differ in speed and battery
// — the heterogeneous fleets of multi-robot patrolling (Scherer &
// Rinner, arXiv:1906.11539) that the paper's homogeneous §5.1 model
// cannot express.
type Fleet struct {
	// Name labels the fleet (used by the sweep engine's fleet axis).
	Name string `json:"name,omitempty"`
	// Mules lists the members; the fleet size is len(Mules).
	Mules []Mule `json:"mules"`
	// AtSink starts every mule at the sink node (the paper's "each DM
	// will start from the sink node"); otherwise mules start at
	// uniform random field positions.
	AtSink bool `json:"at_sink,omitempty"`
}

// Size returns the fleet size.
func (f Fleet) Size() int { return len(f.Mules) }

// Homogeneous reports whether every mule has the first mule's speed
// and no private battery.
func (f Fleet) Homogeneous() bool {
	for _, m := range f.Mules {
		if m.Speed != f.Mules[0].Speed || m.Battery != 0 {
			return false
		}
	}
	return true
}

// CommonSpeed returns the speed shared by every mule, or 0 when the
// fleet mixes speeds (batteries do not matter here) or is empty.
func (f Fleet) CommonSpeed() float64 {
	if len(f.Mules) == 0 {
		return 0
	}
	for _, m := range f.Mules {
		if m.Speed != f.Mules[0].Speed {
			return 0
		}
	}
	return f.Mules[0].Speed
}

// Members converts the fleet to per-mule patrol overrides.
func (f Fleet) Members() []patrol.FleetMember {
	out := make([]patrol.FleetMember, len(f.Mules))
	for i, m := range f.Mules {
		out[i] = patrol.FleetMember{Speed: m.Speed, Battery: m.Battery}
	}
	return out
}

// Homogeneous builds an n-mule fleet of identical speed mules, named
// after its shape (e.g. "4x2").
func Homogeneous(n int, speed float64) Fleet {
	mules := make([]Mule, n)
	for i := range mules {
		mules[i] = Mule{Speed: speed}
	}
	return Fleet{Name: fmt.Sprintf("%dx%g", n, speed), Mules: mules}
}

// Workload kinds.
const (
	// KindPackets is the periodic model: every node emits one reading
	// per generation interval (the default; an empty Kind means the
	// same).
	KindPackets = "packets"
	// KindBursts is the event-driven model: a subset of targets emits
	// packets in Poisson bursts (exponential inter-burst gaps).
	KindBursts = "bursts"
	// KindPriority is the periodic model with per-class delivery
	// accounting: VIP targets (weight > 1) emit high-priority packets
	// and the overlay splits its delay statistics by priority.
	KindPriority = "priority"
)

// Workload is one data workload layered on a run: sensor nodes at the
// targets generate packets that mules pick up and deliver to the sink
// (the wsn overlay). Kind selects the generation model — periodic
// readings or event-driven Poisson bursts — and the sweep engine
// exposes workloads as a first-class axis either way.
type Workload struct {
	// Name labels the workload; it must be non-empty (the sweep
	// engine's zero Workload, with an empty name, means "none").
	Name string `json:"name"`
	// Kind selects the generation model: "" or "packets" for the
	// periodic model parameterized by Data, "bursts" for Poisson
	// bursts parameterized by Bursts, "priority" for the periodic
	// model with priority-split delivery statistics (also Data).
	Kind string `json:"kind,omitempty"`
	// Data parameterizes the periodic packet workload.
	Data wsn.Config `json:"data"`
	// Bursts parameterizes the burst workload (nil uses the burst
	// defaults); ignored unless Kind is "bursts".
	Bursts *wsn.BurstConfig `json:"bursts,omitempty"`
}

// Enabled reports whether the workload is real (named).
func (w Workload) Enabled() bool { return w.Name != "" }

// Build materializes the workload's overlay for a concrete scenario.
// src drives the workload's randomness (burst arrival processes); the
// periodic model consumes none, so passing nil there is allowed.
func (w Workload) Build(s *field.Scenario, src *xrand.Source) *wsn.Network {
	if w.Kind == KindBursts {
		var cfg wsn.BurstConfig
		if w.Bursts != nil {
			cfg = *w.Bursts
		}
		if src == nil {
			src = xrand.New(0)
		}
		return wsn.NewBursts(s, cfg, src)
	}
	if w.Kind == KindPriority {
		return wsn.NewPriority(s, w.Data)
	}
	return wsn.New(s, w.Data)
}

// Scenario is the complete declarative description of a simulation
// run. The zero value is not runnable; construct via the builder, a
// preset, or JSON.
type Scenario struct {
	// Name labels the scenario.
	Name string `json:"name,omitempty"`
	// Field is the region and placement distribution.
	Field Field `json:"field"`
	// Targets is the target population.
	Targets Targets `json:"targets"`
	// Fleet is the data-mule fleet.
	Fleet Fleet `json:"fleet"`
	// Horizon is the simulated duration in seconds (0 selects the
	// patrol default of 100 000 s).
	Horizon float64 `json:"horizon,omitempty"`
	// Workloads are the data workloads attached to every run.
	Workloads []Workload `json:"workloads,omitempty"`
	// Events is the dynamic-world schedule (mule deaths, attrition,
	// target spawns) with its handoff policy; nil means the static
	// world of the paper.
	Events *Events `json:"events,omitempty"`
}

// Validate checks the declarative invariants. It does not touch
// randomness: a valid scenario materializes successfully from any
// source, unless its clusters do not fit the field, which Materialize
// reports.
func (s *Scenario) Validate() error {
	if s.Field.Width < 0 || s.Field.Height < 0 {
		return fmt.Errorf("scenario: field %g × %g has a negative dimension",
			s.Field.Width, s.Field.Height)
	}
	if s.Field.NumClusters < 0 || s.Field.ClusterRadius < 0 {
		return fmt.Errorf("scenario: negative clusters: %d of radius %g",
			s.Field.NumClusters, s.Field.ClusterRadius)
	}
	if _, err := field.ParsePlacement(s.Field.Placement.String()); err != nil {
		return fmt.Errorf("scenario: invalid placement %v", s.Field.Placement)
	}
	if s.Targets.Count < 1 {
		return fmt.Errorf("scenario: %d targets", s.Targets.Count)
	}
	if s.Targets.VIPs < 0 {
		return fmt.Errorf("scenario: %d VIPs", s.Targets.VIPs)
	}
	if s.Targets.VIPs > s.Targets.Count {
		return fmt.Errorf("scenario: %d VIPs exceed %d targets",
			s.Targets.VIPs, s.Targets.Count)
	}
	if s.Targets.VIPs > 0 && s.Targets.VIPWeight < 2 {
		return fmt.Errorf("scenario: VIP weight %d < 2", s.Targets.VIPWeight)
	}
	if s.Fleet.Size() < 1 {
		return fmt.Errorf("scenario: empty fleet")
	}
	for i, m := range s.Fleet.Mules {
		if m.Speed <= 0 {
			return fmt.Errorf("scenario: mule %d has speed %g", i, m.Speed)
		}
		if m.Battery < 0 {
			return fmt.Errorf("scenario: mule %d has battery %g J", i, m.Battery)
		}
	}
	if s.Horizon < 0 {
		return fmt.Errorf("scenario: horizon %g s", s.Horizon)
	}
	seen := map[string]bool{}
	for i, w := range s.Workloads {
		if !w.Enabled() {
			return fmt.Errorf("scenario: workload %d has no name", i)
		}
		if seen[w.Name] {
			return fmt.Errorf("scenario: duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		switch w.Kind {
		case "", KindPackets, KindPriority:
			if w.Data.GenInterval < 0 || w.Data.BufferCap < 0 || w.Data.Deadline < 0 {
				return fmt.Errorf("scenario: workload %q has negative parameters", w.Name)
			}
		case KindBursts:
			if b := w.Bursts; b != nil {
				if b.Hot < 0 || b.MeanGap < 0 || b.Size < 0 || b.BufferCap < 0 || b.Deadline < 0 {
					return fmt.Errorf("scenario: workload %q has negative parameters", w.Name)
				}
				if b.Hot > s.Targets.Count {
					return fmt.Errorf("scenario: workload %q marks %d hot targets of %d",
						w.Name, b.Hot, s.Targets.Count)
				}
			}
		default:
			return fmt.Errorf("scenario: workload %q has unknown kind %q (valid: %s, %s, %s)",
				w.Name, w.Kind, KindPackets, KindBursts, KindPriority)
		}
	}
	return s.Events.validate(s.Fleet.Size(), s.Targets.Count)
}

// Materialize generates the concrete field.Scenario deterministically
// from src: target positions per the placement distribution, mule
// starts, VIP assignment. It returns an error for an invalid scenario
// and for clusters that do not fit the field. The derivation is
// identical to the historic field.Generate + AssignVIPs path, so
// materializing a homogeneous paper-protocol scenario is bit-compatible
// with pre-scenario code.
func (s *Scenario) Materialize(src *xrand.Source) (*field.Scenario, error) {
	scn := new(field.Scenario)
	if err := s.MaterializeInto(scn, src); err != nil {
		return nil, err
	}
	return scn, nil
}

// MaterializeInto is Materialize building the instance in dst, whose
// arrays it reuses (see field.GenerateInto).
func (s *Scenario) MaterializeInto(dst *field.Scenario, src *xrand.Source) error {
	if err := s.Validate(); err != nil {
		return err
	}
	cfg := field.Config{
		Width:         s.Field.Width,
		Height:        s.Field.Height,
		NumTargets:    s.Targets.Count,
		NumMules:      s.Fleet.Size(),
		Placement:     s.Field.Placement,
		NumClusters:   s.Field.NumClusters,
		ClusterRadius: s.Field.ClusterRadius,
		MulesAtSink:   s.Fleet.AtSink,
		WithRecharge:  s.Field.Recharge,
	}
	if err := field.GenerateInto(dst, cfg, src); err != nil {
		return err
	}
	if s.Targets.VIPs > 0 {
		dst.AssignVIPs(src, s.Targets.VIPs, s.Targets.VIPWeight)
	}
	return nil
}

// PatrolOptions derives the run options the scenario implies: horizon,
// fleet speed, and — only when the fleet is heterogeneous — the
// per-mule overrides. Events and workload observers are attached by
// Attach, not here.
func (s *Scenario) PatrolOptions() patrol.Options {
	o := patrol.Options{Horizon: s.Horizon}
	if s.Fleet.Size() == 0 {
		return o
	}
	o.Speed = s.Fleet.Mules[0].Speed
	if !s.Fleet.Homogeneous() {
		o.Fleet = s.Fleet.Members()
	}
	return o
}

// Result is a finished scenario run.
type Result struct {
	*patrol.Result
	// Scenario is the materialized instance the run executed on.
	Scenario *field.Scenario
	// Data holds one wsn overlay per declared workload, in
	// declaration order, with the delivery statistics of the run.
	Data []*wsn.Network
}

// Streams are the independent SplitMix64 streams of one replication
// seed, in the order of the seed-derivation contract: stream 1
// generates the scenario (target layout, mule starts, VIP assignment),
// stream 2 drives the algorithm (random baseline picks, k-means
// seeding, random break edges), stream 3 the workloads (each workload
// splits its own sub-stream in declaration order), stream 4 the
// partition layer (k-means restarts) and stream 5 failure injection
// (event attrition picks, then the sweep's failure-axis draws). Since
// each consumer owns its stream, changing an algorithm's randomness
// never perturbs the world it runs on, and enabling failures never
// changes the world or the algorithm.
type Streams struct {
	Scenario, Algorithm, Workload, Partition, Failure xrand.Source
}

// SeedStreams splits the replication seed into its five streams.
func SeedStreams(seed uint64) Streams {
	root := xrand.New(seed)
	// Operands evaluate left to right, so the fields take the splits in
	// contract order.
	return Streams{
		Scenario:  *root.Split(),
		Algorithm: *root.Split(),
		Workload:  *root.Split(),
		Partition: *root.Split(),
		Failure:   *root.Split(),
	}
}

// Attach wires the scenario's dynamic world and workloads into opts
// for a materialized instance: it appends the declared events,
// resolved on st's failure stream, and sets their handoff policy, then
// builds each declared workload on its own sub-stream of st's workload
// stream and appends it as an observer. It returns the workload
// overlays in declaration order.
func (s *Scenario) Attach(scn *field.Scenario, st *Streams, opts *patrol.Options) ([]*wsn.Network, error) {
	if s.Events.Enabled() {
		evs, err := s.Events.Resolve(scn, &st.Failure)
		if err != nil {
			return nil, err
		}
		opts.Events = append(opts.Events, evs...)
		if opts.Handoff, err = s.Events.Policy(); err != nil {
			return nil, err
		}
	}
	data := make([]*wsn.Network, len(s.Workloads))
	for i, w := range s.Workloads {
		data[i] = w.Build(scn, st.Workload.Split())
		opts.Observers = append(opts.Observers, data[i])
	}
	return data, nil
}

// Run executes the algorithm on the scenario for one replication seed:
// it materializes the world from the seed's scenario stream, attaches
// the declared events and workloads (Attach), then any extra observers
// as peers, and runs on the algorithm stream. A one-seed sweep of the
// same scenario runs exactly this replication.
func (s *Scenario) Run(alg patrol.Algorithm, seed uint64, obs ...patrol.Observer) (*Result, error) {
	st := SeedStreams(seed)
	scn, err := s.Materialize(&st.Scenario)
	if err != nil {
		return nil, err
	}
	opts := s.PatrolOptions()
	data, err := s.Attach(scn, &st, &opts)
	if err != nil {
		return nil, err
	}
	opts.Observers = append(opts.Observers, obs...)

	res, err := patrol.Run(scn, alg, opts, &st.Algorithm)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Scenario: scn, Data: data}, nil
}

// MarshalJSON round-trips through the standard encoder; the method
// exists so the scenario format is an explicit, stable artifact.
func (s *Scenario) MarshalJSON() ([]byte, error) {
	type alias Scenario // drop methods to avoid recursion
	return json.Marshal((*alias)(s))
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	type alias Scenario
	return json.Unmarshal(b, (*alias)(s))
}
