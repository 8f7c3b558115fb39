package experiment

import (
	"fmt"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/stats"
	"tctp/internal/sweep"
)

// Fig7Config parameterizes E1 (paper Fig. 7): the DCDT trajectory over
// the first MaxVisits visiting intervals for Random, Sweep, CHB and
// TCTP on one workload.
type Fig7Config struct {
	Targets   int     // patrolled targets excluding the sink (default 20)
	Mules     int     // fleet size (default 4)
	MaxVisits int     // x-axis length (default 40, as in the paper)
	Horizon   float64 // simulated seconds (default 400 000)
	// Placement selects the target layout (default Uniform, the
	// paper's §5.1 model; Clusters reproduces the motivating
	// disconnected deployment).
	Placement field.Placement
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Targets == 0 {
		c.Targets = 20
	}
	if c.Mules == 0 {
		c.Mules = 4
	}
	if c.MaxVisits == 0 {
		c.MaxVisits = 40
	}
	if c.Horizon == 0 {
		c.Horizon = 400_000
	}
	return c
}

// Fig7Result holds one DCDT curve per algorithm, averaged over
// replications.
type Fig7Result struct {
	Series []stats.Series
}

// String renders the result.
func (r *Fig7Result) String() string {
	return RenderSeries("Fig. 7 — DCDT vs. visit index", "visit", r.Series)
}

// Fig7 reproduces paper Fig. 7. Expected shape: TCTP flat (equal
// spacing), CHB and Sweep periodic oscillation, Random large and
// erratic. The four algorithms are cells of one sweep, so they run
// concurrently instead of one after another. The sweep is named fig7,
// or fig7-<placement> for a placement other than Uniform, so that the
// two studies keep checkpoints of their own in one directory.
func Fig7(p Params, cfg Fig7Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	name := "fig7"
	if cfg.Placement != field.Uniform {
		name += "-" + cfg.Placement.String()
	}
	spec := p.spec(name)
	spec.Algorithms = []sweep.Variant{
		sweep.Algo("Random", patrol.Online(&baseline.Random{})),
		sweep.Algo("Sweep", patrol.Planned(&baseline.Sweep{})),
		sweep.Algo("CHB", patrol.Planned(&baseline.CHB{})),
		sweep.Algo("TCTP", patrol.Planned(&core.BTCTP{})),
	}
	spec.Targets = []int{cfg.Targets}
	spec.Mules = []int{cfg.Mules}
	spec.Placements = []field.Placement{cfg.Placement}
	spec.Horizons = []float64{cfg.Horizon}
	spec.Vectors = []sweep.VectorMetric{sweep.DCDTCurve(cfg.MaxVisits)}

	res, err := p.run(spec)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	out := &Fig7Result{}
	for _, c := range res.Cells {
		s := stats.Series{Name: c.Point.Algorithm}
		for k, y := range c.Vector("dcdt_curve").Mean {
			s.Add(float64(k+1), y)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// Fig8Config parameterizes E2 (paper Fig. 8): the SD surface over
// (#targets × #mules) for CHB vs TCTP.
type Fig8Config struct {
	Targets []int   // default {10, 20, 30, 40, 50}
	Mules   []int   // default {2, 4, 6, 8, 10}
	Horizon float64 // default 60 000 s
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Targets) == 0 {
		c.Targets = []int{10, 20, 30, 40, 50}
	}
	if len(c.Mules) == 0 {
		c.Mules = []int{2, 4, 6, 8, 10}
	}
	if c.Horizon == 0 {
		c.Horizon = 60_000
	}
	return c
}

// Fig8Result holds the two SD surfaces.
type Fig8Result struct {
	TCTP *stats.Surface
	CHB  *stats.Surface
}

// String renders both surfaces.
func (r *Fig8Result) String() string {
	return RenderSurface(r.TCTP) + "\n" + RenderSurface(r.CHB)
}

// Fig8 reproduces paper Fig. 8. Expected shape: the TCTP surface is ~0
// everywhere; the CHB surface is clearly positive and grows with the
// number of targets (longer, more irregular circuit). All 2 × |targets|
// × |mules| cells execute through one worker pool.
func Fig8(p Params, cfg Fig8Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	spec := p.spec("fig8")
	spec.Algorithms = []sweep.Variant{
		sweep.Algo("TCTP", patrol.Planned(&core.BTCTP{})),
		sweep.Algo("CHB", patrol.Planned(&baseline.CHB{})),
	}
	spec.Targets = cfg.Targets
	spec.Mules = cfg.Mules
	spec.Horizons = []float64{cfg.Horizon}
	spec.Metrics = []sweep.Metric{sweep.AvgSD()}

	res, err := p.run(spec)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	rows := toF(cfg.Targets)
	cols := toF(cfg.Mules)
	out := &Fig8Result{
		TCTP: stats.NewSurface("TCTP avg SD (s)", "targets", "mules", rows, cols),
		CHB:  stats.NewSurface("CHB avg SD (s)", "targets", "mules", rows, cols),
	}
	for _, c := range res.Cells {
		surf := out.TCTP
		if c.Point.Algorithm == "CHB" {
			surf = out.CHB
		}
		i := indexOf(cfg.Targets, c.Point.Targets)
		j := indexOf(cfg.Mules, c.Point.Mules)
		surf.Set(i, j, c.Metric("avg_sd_s").Mean)
	}
	return out, nil
}

// WTCTPConfig parameterizes E3/E4 (paper Figs. 9 and 10): the DCDT and
// SD surfaces over (#VIPs × VIP weight) for the Shortest-Length vs
// Balancing-Length policies.
//
// The default fleet is a SINGLE mule. The paper does not state the
// fleet size for these figures, and with k mules a weight-w VIP whose
// cycles are balanced has visits spaced |P̄|/w apart, which resonates
// with the k-mule phase offset |P̄|/k whenever w is a multiple of k —
// mules then arrive at the VIP simultaneously and the SD advantage of
// the Balancing policy inverts. One mule reproduces the paper's
// claimed shapes cleanly; the resonance is documented in
// EXPERIMENTS.md.
type WTCTPConfig struct {
	Targets int     // default 20
	Mules   int     // default 1 (see note above)
	VIPs    []int   // default {1, 2, 3, 4, 5}
	Weights []int   // default {2, 3, 4, 5, 6}
	Horizon float64 // default 120 000 s
}

func (c WTCTPConfig) withDefaults() WTCTPConfig {
	if c.Targets == 0 {
		c.Targets = 20
	}
	if c.Mules == 0 {
		c.Mules = 1
	}
	if len(c.VIPs) == 0 {
		c.VIPs = []int{1, 2, 3, 4, 5}
	}
	if len(c.Weights) == 0 {
		c.Weights = []int{2, 3, 4, 5, 6}
	}
	if c.Horizon == 0 {
		c.Horizon = 120_000
	}
	return c
}

// WTCTPResult holds the four surfaces: DCDT (Fig. 9) and SD (Fig. 10)
// for each policy.
type WTCTPResult struct {
	DCDTShortest  *stats.Surface
	DCDTBalancing *stats.Surface
	SDShortest    *stats.Surface
	SDBalancing   *stats.Surface
}

// Fig9String renders the Fig. 9 surfaces (average DCDT).
func (r *WTCTPResult) Fig9String() string {
	return RenderSurface(r.DCDTShortest) + "\n" + RenderSurface(r.DCDTBalancing)
}

// Fig10String renders the Fig. 10 surfaces (average SD).
func (r *WTCTPResult) Fig10String() string {
	return RenderSurface(r.SDShortest) + "\n" + RenderSurface(r.SDBalancing)
}

// WTCTPPolicies reproduces paper Figs. 9 and 10 in one parameter
// sweep over policy × #VIPs × weight. Expected shapes: DCDT grows with
// #VIPs and weight under both policies, with Shortest ≤ Balancing
// (Fig. 9); SD grows sharply under Shortest but stays low under
// Balancing (Fig. 10).
func WTCTPPolicies(p Params, cfg WTCTPConfig) (*WTCTPResult, error) {
	cfg = cfg.withDefaults()
	spec := p.spec("wtctp-policies")
	spec.Algorithms = []sweep.Variant{
		sweep.Algo("Shortest", patrol.Planned(&core.WTCTP{Policy: core.ShortestLength})),
		sweep.Algo("Balancing", patrol.Planned(&core.WTCTP{Policy: core.BalancingLength})),
	}
	spec.Targets = []int{cfg.Targets}
	spec.Mules = []int{cfg.Mules}
	spec.VIPs = cfg.VIPs
	spec.VIPWeights = cfg.Weights
	spec.Horizons = []float64{cfg.Horizon}
	spec.Metrics = []sweep.Metric{sweep.AvgDCDT(), sweep.AvgSD()}

	res, err := p.run(spec)
	if err != nil {
		return nil, fmt.Errorf("wtctp: %w", err)
	}
	rows := toF(cfg.VIPs)
	cols := toF(cfg.Weights)
	out := &WTCTPResult{
		DCDTShortest:  stats.NewSurface("Shortest policy avg DCDT (s)", "vips", "weight", rows, cols),
		DCDTBalancing: stats.NewSurface("Balancing policy avg DCDT (s)", "vips", "weight", rows, cols),
		SDShortest:    stats.NewSurface("Shortest policy avg SD (s)", "vips", "weight", rows, cols),
		SDBalancing:   stats.NewSurface("Balancing policy avg SD (s)", "vips", "weight", rows, cols),
	}
	for _, c := range res.Cells {
		dcdt, sd := out.DCDTShortest, out.SDShortest
		if c.Point.Algorithm == "Balancing" {
			dcdt, sd = out.DCDTBalancing, out.SDBalancing
		}
		i := indexOf(cfg.VIPs, c.Point.VIPs)
		j := indexOf(cfg.Weights, c.Point.VIPWeight)
		dcdt.Set(i, j, c.Metric("avg_dcdt_s").Mean)
		sd.Set(i, j, c.Metric("avg_sd_s").Mean)
	}
	return out, nil
}

// EnergyConfig parameterizes E5 — the energy study the paper's §V
// text announces ("energy efficiency of DM") but shows no figure for.
type EnergyConfig struct {
	Targets  int     // default 20
	Mules    int     // default 2
	VIPs     int     // default 2 (weight 3) to exercise the full stack
	Weight   int     // default 3
	Capacity float64 // battery joules (default 150 000)
	Horizon  float64 // default 300 000 s
}

func (c EnergyConfig) withDefaults() EnergyConfig {
	if c.Targets == 0 {
		c.Targets = 20
	}
	if c.Mules == 0 {
		c.Mules = 2
	}
	if c.VIPs == 0 {
		c.VIPs = 2
	}
	if c.Weight == 0 {
		c.Weight = 3
	}
	if c.Capacity == 0 {
		c.Capacity = 150_000
	}
	if c.Horizon == 0 {
		c.Horizon = 300_000
	}
	return c
}

// EnergyResult compares RW-TCTP against recharge-less W-TCTP.
type EnergyResult struct {
	Table *Table
}

// String renders the comparison.
func (r *EnergyResult) String() string { return r.Table.String() }

// Energy reproduces E5. Expected shape: without recharge the whole
// fleet dies partway through the horizon and stops collecting; with
// RW-TCTP nothing dies, visits keep accumulating, at a small J/visit
// overhead from the recharge detours.
func Energy(p Params, cfg EnergyConfig) (*EnergyResult, error) {
	cfg = cfg.withDefaults()
	model := energy.Default()
	model.Capacity = cfg.Capacity
	rw := &core.RWTCTP{}
	rw.Model = model

	spec := p.spec("energy")
	spec.Algorithms = []sweep.Variant{
		sweep.Algo("W-TCTP (no recharge)", patrol.Planned(&core.WTCTP{})),
		sweep.Algo("RW-TCTP", patrol.Planned(rw)),
	}
	spec.Targets = []int{cfg.Targets}
	spec.Mules = []int{cfg.Mules}
	spec.VIPs = []int{cfg.VIPs}
	spec.VIPWeights = []int{cfg.Weight}
	spec.Horizons = []float64{cfg.Horizon}
	spec.Battery = []bool{true}
	spec.Configure = func(_ sweep.Point, sc *scenario.Scenario) { sc.Field.Recharge = true }
	spec.Options = func(_ sweep.Point, o *patrol.Options) { o.Energy = model }
	spec.Metrics = []sweep.Metric{
		sweep.TotalVisits(), sweep.JoulesPerVisit(), sweep.DeadMules(),
		sweep.Recharges(), sweep.MaxInterval(),
	}

	res, err := p.run(spec)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	table := NewTable("E5 — energy efficiency with and without recharge",
		"algorithm", "visits", "J/visit", "dead mules", "recharges", "max interval (s)")
	for _, c := range res.Cells {
		table.AddF(c.Point.Algorithm,
			c.Metric("visits").Mean,
			c.Metric("j_per_visit").Mean,
			c.Metric("dead_mules").Mean,
			c.Metric("recharges").Mean,
			c.Metric("max_interval_s").Mean)
	}
	return &EnergyResult{Table: table}, nil
}

// toF converts an int axis to float64 for stats.Surface.
func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// indexOf locates v on an axis; sweep cells always come from the axis,
// so a miss is a bug.
func indexOf(axis []int, v int) int {
	for i, x := range axis {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("experiment: %d not on axis %v", v, axis))
}
