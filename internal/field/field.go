// Package field models the deployment scenario: the monitoring field,
// the target points with their weights, the sink, the optional
// recharge station, and the data mules' initial locations. It also
// provides the scenario generators used by the experiments — uniform
// random placement (the paper's §5.1 simulation model) and the
// disconnected-cluster placement that motivates the paper's
// introduction (targets "distributed over several disconnected
// areas").
package field

import (
	"encoding/json"
	"fmt"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// Target is a point of interest that must be visited periodically. The
// paper calls a target with Weight == 1 a Normal Target Point (NTP)
// and a target with Weight > 1 a Very Important Point (VIP)
// (Definition 1); a VIP must be visited Weight times per traversal of
// the weighted patrolling path.
type Target struct {
	ID     int        `json:"id"`
	Pos    geom.Point `json:"pos"`
	Weight int        `json:"weight"`
}

// IsVIP reports whether the target is a Very Important Point.
func (t Target) IsVIP() bool { return t.Weight > 1 }

// Scenario is a complete problem instance.
type Scenario struct {
	// Field is the monitoring region (the paper uses 800 m × 800 m).
	Field geom.Rect `json:"field"`
	// Targets are the points to patrol. The sink node is also treated
	// as a target point (§2.1) and appears in this slice at SinkID.
	Targets []Target `json:"targets"`
	// SinkID indexes the sink inside Targets.
	SinkID int `json:"sink_id"`
	// Recharge is the recharge station location; valid only when
	// HasRecharge is true. RW-TCTP treats it as an extra path stop.
	Recharge    geom.Point `json:"recharge"`
	HasRecharge bool       `json:"has_recharge"`
	// MuleStarts are the initial locations of the data mules; the
	// fleet size is len(MuleStarts).
	MuleStarts []geom.Point `json:"mule_starts"`
}

// NumTargets returns the number of targets (including the sink).
func (s *Scenario) NumTargets() int { return len(s.Targets) }

// NumMules returns the fleet size.
func (s *Scenario) NumMules() int { return len(s.MuleStarts) }

// Points returns the target positions indexed by target ID.
func (s *Scenario) Points() []geom.Point {
	out := make([]geom.Point, len(s.Targets))
	for i, t := range s.Targets {
		out[i] = t.Pos
	}
	return out
}

// Weights returns the target weights indexed by target ID.
func (s *Scenario) Weights() []int {
	out := make([]int, len(s.Targets))
	for i, t := range s.Targets {
		out[i] = t.Weight
	}
	return out
}

// VIPs returns the IDs of all targets with weight > 1.
func (s *Scenario) VIPs() []int {
	var out []int
	for i, t := range s.Targets {
		if t.IsVIP() {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural invariants: at least one target, sink in
// range, consistent IDs, positive weights, targets within the field.
func (s *Scenario) Validate() error {
	if len(s.Targets) == 0 {
		return fmt.Errorf("field: scenario has no targets")
	}
	if s.SinkID < 0 || s.SinkID >= len(s.Targets) {
		return fmt.Errorf("field: sink id %d out of range [0,%d)", s.SinkID, len(s.Targets))
	}
	for i, t := range s.Targets {
		if t.ID != i {
			return fmt.Errorf("field: target %d has id %d", i, t.ID)
		}
		if t.Weight < 1 {
			return fmt.Errorf("field: target %d has weight %d < 1", i, t.Weight)
		}
		if !s.Field.Contains(t.Pos) {
			return fmt.Errorf("field: target %d at %v outside field", i, t.Pos)
		}
	}
	if len(s.MuleStarts) == 0 {
		return fmt.Errorf("field: scenario has no data mules")
	}
	if s.HasRecharge && !s.Field.Contains(s.Recharge) {
		return fmt.Errorf("field: recharge station %v outside field", s.Recharge)
	}
	return nil
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

// Placement selects how targets are laid out by Generate.
type Placement int

// Supported target placements.
const (
	// Uniform scatters targets independently and uniformly over the
	// field — the paper's §5.1 model ("locations of targets are
	// randomly distributed over the monitoring region").
	Uniform Placement = iota
	// Clusters scatters targets inside several small disjoint discs —
	// the disconnected areas of the paper's motivating deployment.
	Clusters
	// Grid lays targets on a regular lattice; deterministic, used by
	// tests and examples.
	Grid
	// Corridor scatters targets inside a narrow horizontal band across
	// the field centre — the elongated deployments (roads, pipelines,
	// borders) that stretch a patrolling circuit into a line.
	Corridor
	// Hotspot concentrates most targets in one dense disc with the
	// remainder scattered uniformly — the clustered/hotspot layouts of
	// facility-location mule coordination (Hermelin et al.,
	// arXiv:1702.04142).
	Hotspot
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Clusters:
		return "clusters"
	case Grid:
		return "grid"
	case Corridor:
		return "corridor"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// ParsePlacement is the inverse of String.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "clusters":
		return Clusters, nil
	case "grid":
		return Grid, nil
	case "corridor":
		return Corridor, nil
	case "hotspot":
		return Hotspot, nil
	default:
		return 0, fmt.Errorf("field: unknown placement %q (valid: %s)", s, PlacementNames)
	}
}

// PlacementNames lists the accepted ParsePlacement values, for help
// text and error messages.
const PlacementNames = "uniform, clusters, grid, corridor, hotspot"

// MarshalJSON encodes the placement by name.
func (p Placement) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON is the inverse of MarshalJSON.
func (p *Placement) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParsePlacement(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Config parameterizes Generate.
type Config struct {
	// Width and Height of the field in metres. Defaults: 800 × 800.
	Width, Height float64
	// NumTargets counts patrolled points excluding the sink.
	NumTargets int
	// NumMules is the fleet size.
	NumMules int
	// Placement selects the target layout.
	Placement Placement
	// NumClusters and ClusterRadius apply when Placement == Clusters.
	// Defaults: 4 clusters of radius 80 m.
	NumClusters   int
	ClusterRadius float64
	// MulesAtSink places every data mule at the sink initially (the
	// paper's "each DM will start from the sink node"); otherwise
	// mules start at uniform random field positions.
	MulesAtSink bool
	// WithRecharge adds a recharge station at the field centre.
	WithRecharge bool
}

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 800
	}
	if c.Height == 0 {
		c.Height = 800
	}
	if c.NumClusters == 0 {
		c.NumClusters = 4
	}
	if c.ClusterRadius == 0 {
		c.ClusterRadius = 80
	}
	return c
}

// Generate builds a scenario from cfg using the deterministic source
// src. The sink is placed at the field centre and is target 0 with
// weight 1. Generated targets are IDs 1..NumTargets. It panics on a
// config with no targets or no mules, and returns an error for a
// clusters layout it cannot place (see clusterPositions).
func Generate(cfg Config, src *xrand.Source) (*Scenario, error) {
	cfg = cfg.withDefaults()
	if cfg.NumTargets < 1 {
		panic(fmt.Sprintf("field: Generate with NumTargets=%d", cfg.NumTargets))
	}
	if cfg.NumMules < 1 {
		panic(fmt.Sprintf("field: Generate with NumMules=%d", cfg.NumMules))
	}

	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(cfg.Width, cfg.Height))
	s := &Scenario{Field: rect}

	sinkPos := rect.Center()
	s.Targets = append(s.Targets, Target{ID: 0, Pos: sinkPos, Weight: 1})
	s.SinkID = 0

	var positions []geom.Point
	switch cfg.Placement {
	case Uniform:
		positions = uniformPositions(cfg, src)
	case Clusters:
		var err error
		if positions, err = clusterPositions(cfg, src); err != nil {
			return nil, err
		}
	case Grid:
		positions = gridPositions(cfg)
	case Corridor:
		positions = corridorPositions(cfg, src)
	case Hotspot:
		positions = hotspotPositions(cfg, src)
	default:
		panic(fmt.Sprintf("field: unknown placement %v", cfg.Placement))
	}
	for i, p := range positions {
		s.Targets = append(s.Targets, Target{ID: i + 1, Pos: p, Weight: 1})
	}

	s.MuleStarts = make([]geom.Point, cfg.NumMules)
	for i := range s.MuleStarts {
		if cfg.MulesAtSink {
			s.MuleStarts[i] = sinkPos
		} else {
			s.MuleStarts[i] = geom.Pt(src.Range(0, cfg.Width), src.Range(0, cfg.Height))
		}
	}

	if cfg.WithRecharge {
		s.HasRecharge = true
		s.Recharge = rect.Center().Add(geom.Vec{X: float64(cfg.Width / 4), Y: 0})
	}
	return s, nil
}

func uniformPositions(cfg Config, src *xrand.Source) []geom.Point {
	out := make([]geom.Point, cfg.NumTargets)
	for i := range out {
		out[i] = geom.Pt(src.Range(0, cfg.Width), src.Range(0, cfg.Height))
	}
	return out
}

// maxRejects bounds the draws in a row that clusterPositions rejects
// before it gives up: a feasible layout places a centre or a point far
// sooner (a point inside its disc passes with probability π/4).
const maxRejects = 1 << 20

// clusterPositions places cfg.NumClusters cluster centres and then the
// targets, round-robin over the clusters, each by rejection sampling.
// It returns an error for a negative cluster count or radius, and when
// maxRejects draws in a row are rejected: centres that do not fit the
// field, or a radius too large for the arithmetic.
func clusterPositions(cfg Config, src *xrand.Source) ([]geom.Point, error) {
	if cfg.NumClusters < 0 || !(cfg.ClusterRadius >= 0) {
		return nil, fmt.Errorf("field: negative clusters: %d of radius %g", cfg.NumClusters, cfg.ClusterRadius)
	}
	noRoom := func() error {
		return fmt.Errorf("field: %d clusters of radius %g do not fit a %g × %g field",
			cfg.NumClusters, cfg.ClusterRadius, cfg.Width, cfg.Height)
	}
	// Cluster centres are kept ClusterRadius away from the border and
	// at least 2·radius+margin apart so the areas are genuinely
	// disconnected (farther apart than the 20 m communication range).
	const sep = 20.0 // paper's communication range, metres
	centres := make([]geom.Point, 0, cfg.NumClusters)
	for rejects := 0; len(centres) < cfg.NumClusters; {
		if rejects == maxRejects {
			return nil, noRoom()
		}
		c := geom.Pt(
			src.Range(cfg.ClusterRadius, cfg.Width-cfg.ClusterRadius),
			src.Range(cfg.ClusterRadius, cfg.Height-cfg.ClusterRadius),
		)
		ok := true
		for _, prev := range centres {
			if c.Dist(prev) < 2*cfg.ClusterRadius+sep {
				ok = false
				break
			}
		}
		if !ok {
			rejects++
			continue
		}
		centres, rejects = append(centres, c), 0
	}
	out := make([]geom.Point, cfg.NumTargets)
	for i := range out {
		centre := centres[i%len(centres)]
		// Rejection-sample a point inside the disc.
		for rejects := 0; ; rejects++ {
			if rejects == maxRejects {
				return nil, noRoom()
			}
			p := geom.Pt(
				src.Range(centre.X-cfg.ClusterRadius, centre.X+cfg.ClusterRadius),
				src.Range(centre.Y-cfg.ClusterRadius, centre.Y+cfg.ClusterRadius),
			)
			if p.Dist(centre) <= cfg.ClusterRadius {
				out[i] = p
				break
			}
		}
	}
	return out, nil
}

func gridPositions(cfg Config) []geom.Point {
	out := make([]geom.Point, 0, cfg.NumTargets)
	cols := 1
	for cols*cols < cfg.NumTargets {
		cols++
	}
	rows := (cfg.NumTargets + cols - 1) / cols
	for r := 0; r < rows && len(out) < cfg.NumTargets; r++ {
		for c := 0; c < cols && len(out) < cfg.NumTargets; c++ {
			x := cfg.Width * (float64(c) + 0.5) / float64(cols)
			y := cfg.Height * (float64(r) + 0.5) / float64(rows)
			out = append(out, geom.Pt(x, y))
		}
	}
	return out
}

// corridorPositions scatters targets uniformly inside a horizontal
// band one sixth of the field tall, centred vertically.
func corridorPositions(cfg Config, src *xrand.Source) []geom.Point {
	half := cfg.Height / 12
	out := make([]geom.Point, cfg.NumTargets)
	for i := range out {
		out[i] = geom.Pt(
			src.Range(0, cfg.Width),
			src.Range(float64(cfg.Height/2)-half, float64(cfg.Height/2)+half),
		)
	}
	return out
}

// hotspotPositions places 70% of the targets inside a dense disc in
// the upper-right quadrant and the rest uniformly over the field.
func hotspotPositions(cfg Config, src *xrand.Source) []geom.Point {
	centre := geom.Pt(float64(0.75*cfg.Width), float64(0.75*cfg.Height))
	radius := cfg.Width / 10
	if r := cfg.Height / 10; r < radius {
		radius = r
	}
	hot := (cfg.NumTargets*7 + 9) / 10
	out := make([]geom.Point, cfg.NumTargets)
	for i := range out {
		if i < hot {
			// Rejection-sample a point inside the hotspot disc.
			for {
				p := geom.Pt(
					src.Range(centre.X-radius, centre.X+radius),
					src.Range(centre.Y-radius, centre.Y+radius),
				)
				if p.Dist(centre) <= radius {
					out[i] = p
					break
				}
			}
		} else {
			out[i] = geom.Pt(src.Range(0, cfg.Width), src.Range(0, cfg.Height))
		}
	}
	return out
}

// AssignVIPs upgrades count randomly chosen non-sink targets to weight
// w. Existing VIPs are reset to weight 1 first, so the call is
// idempotent with respect to the VIP population. It panics if count
// exceeds the number of non-sink targets or w < 2.
func (s *Scenario) AssignVIPs(src *xrand.Source, count, w int) {
	if w < 2 {
		panic(fmt.Sprintf("field: AssignVIPs with weight %d < 2", w))
	}
	var candidates []int
	for i := range s.Targets {
		s.Targets[i].Weight = 1
		if i != s.SinkID {
			candidates = append(candidates, i)
		}
	}
	if count > len(candidates) {
		panic(fmt.Sprintf("field: AssignVIPs count %d > %d non-sink targets", count, len(candidates)))
	}
	src.ShuffleInts(candidates)
	for _, id := range candidates[:count] {
		s.Targets[id].Weight = w
	}
}

// Clone returns a deep copy of the scenario.
func (s *Scenario) Clone() *Scenario {
	out := *s
	out.Targets = make([]Target, len(s.Targets))
	copy(out.Targets, s.Targets)
	out.MuleStarts = make([]geom.Point, len(s.MuleStarts))
	copy(out.MuleStarts, s.MuleStarts)
	return &out
}
