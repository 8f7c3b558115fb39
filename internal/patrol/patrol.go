// Package patrol runs a patrolling algorithm on a scenario through the
// event-driven simulator and collects the paper's metrics. It is the
// bridge between the planners (internal/core, internal/baseline),
// which produce geometric routes, and the simulation substrate
// (internal/sim, internal/mule), which executes them in time.
package patrol

import (
	"fmt"
	"math"

	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/metrics"
	"tctp/internal/mule"
	"tctp/internal/sim"
	"tctp/internal/xrand"
)

// FleetMember overrides one mule's parameters, enabling heterogeneous
// fleets. The zero value inherits the run-level defaults.
type FleetMember struct {
	// Speed is this mule's velocity in m/s; 0 inherits Options.Speed.
	Speed float64
	// Battery is this mule's battery capacity in joules; > 0 gives the
	// mule its own battery regardless of Options.UseBattery, 0 falls
	// back to the run-level battery policy.
	Battery float64
}

// Options configures a simulation run. The zero value selects the
// paper's §5.1 parameters.
type Options struct {
	// Speed is the mule velocity in m/s (default 2, per §5.1).
	Speed float64
	// Fleet optionally overrides per-mule speed and battery; when
	// non-nil its length must equal the scenario's fleet size.
	Fleet []FleetMember
	// Energy is the energy model (default energy.Default()).
	Energy energy.Model
	// UseBattery enables the battery constraint; when false mules
	// have unlimited energy (the B/W-TCTP experiments).
	UseBattery bool
	// Horizon is the simulated duration in seconds (default 100 000 s,
	// enough for tens of circuits of an 800 m field at 2 m/s).
	Horizon float64
	// MaxEvents bounds the event count as a safety valve (default
	// 5 000 000). A mule leg — the dwell and any hold at the stop it
	// leaves, then the travel — is one event, ending in the arrival
	// that records a visit, so a run records at most MaxEvents visits.
	// Mules run ahead of the engine on their own clocks (see Run) only
	// when the plan's routes prove that the whole run's events up to
	// the horizon stay within MaxEvents, so the guard never stops such
	// a run, whichever clock its mules keep.
	MaxEvents uint64
	// NoSynchronizedStart lets each mule begin patrolling the moment
	// it reaches its start point instead of waiting for the slowest
	// mule. Synchronized start (the default) is what makes B-TCTP's
	// equal spacing exact; disabling it is the A3-adjacent ablation.
	NoSynchronizedStart bool
	// Observers receive simulation events in addition to the built-in
	// metrics recorder — e.g. the wsn data-collection overlay or an
	// energy.Audit. They are invoked after the built-in bookkeeping
	// for the same event, in slice order.
	// Attaching an observer keeps every mule on the global clock, so
	// observers see every event in global time order; without one,
	// every mule with no battery and no recharge stop may run ahead,
	// whether or not it shares targets (see Run).
	Observers []Observer
	// Events is the dynamic-world schedule: mid-horizon mule failures
	// and target spawns, applied in one batch per distinct time. Empty
	// means the static world of the paper. Targets named by spawn
	// events start dormant — excluded from the initial plan and from
	// routing until their event time — which requires a plan-based
	// algorithm.
	Events []Event
	// Handoff selects the fleet's response to events for plan-based
	// algorithms: HandoffNone (default) leaves surviving routes
	// untouched, HandoffAbsorb swaps in a replanned FleetPlan at each
	// event boundary.
	Handoff Handoff
}

func (o Options) withDefaults() Options {
	if o.Speed == 0 {
		o.Speed = 2
	}
	if o.Energy == (energy.Model{}) {
		o.Energy = energy.Default()
	}
	if o.Horizon == 0 {
		o.Horizon = 100_000
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 5_000_000
	}
	return o
}

// muleSpeed returns the effective speed of mule i.
func (o Options) muleSpeed(i int) float64 {
	if i < len(o.Fleet) && o.Fleet[i].Speed > 0 {
		return o.Fleet[i].Speed
	}
	return o.Speed
}

// slowestSpeed returns the minimum effective speed across an n-mule
// fleet — the speed that bounds the synchronized patrol start.
func (o Options) slowestSpeed(n int) float64 {
	min := 0.0
	for i := 0; i < n; i++ {
		if s := o.muleSpeed(i); min == 0 || s < min {
			min = s
		}
	}
	if min == 0 {
		min = o.Speed
	}
	return min
}

// MuleStats summarizes one mule's run.
type MuleStats struct {
	Distance       float64
	EnergyConsumed float64
	Visits         int
	Recharges      int
	Dead           bool
}

// GroupStats summarizes one patrol group of a plan-based run: the
// group's identity (member targets and mules) plus the aggregate of
// its mules' statistics. Per-group interval metrics are derived by
// passing Targets to the Recorder's ...Over methods.
type GroupStats struct {
	// Targets are the group's member target ids.
	Targets []int
	// Mules are the group's member mule indices.
	Mules []int
	// WalkLength is the group's patrolling walk length in metres.
	WalkLength float64
	// Distance is the summed travel distance of the group's mules.
	Distance float64
	// Visits is the summed collection count of the group's mules.
	Visits int
	// EnergyConsumed is the summed energy of the group's mules.
	EnergyConsumed float64
}

// Result bundles everything a run produces.
type Result struct {
	// Algorithm names the executed algorithm.
	Algorithm string
	// Recorder holds the per-target visit log. It is the caller's; one
	// that runs simulation after simulation may hand it to
	// metrics.Release once done with the Result.
	Recorder *metrics.Recorder
	// Mules holds per-mule statistics.
	Mules []MuleStats
	// PatrolStart is the synchronized patrol start time (0 when
	// synchronization is off or no plan is involved).
	PatrolStart float64
	// Plan is the fixed-route plan, when the algorithm has one.
	Plan *core.FleetPlan
	// Groups holds per-group statistics for plan-based runs, in the
	// plan's group order; nil for online algorithms. Single-circuit
	// plans carry exactly one entry covering the whole scenario. After
	// a replan the entries still describe the INITIAL plan's groups —
	// the stable frame degraded-mode metrics are reported in.
	Groups []GroupStats
	// Failures lists the injected mule failures that took effect, in
	// time order (emergent battery deaths are not included; see
	// MuleStats.Dead).
	Failures []FailureRecord
	// Replans records each successful mid-run plan swap performed by
	// the absorb handoff policy, in time order.
	Replans []ReplanRecord
}

// FirstFailureTime returns the time of the first injected failure and
// whether one occurred — the reference point of the degraded-mode
// metrics.
func (r *Result) FirstFailureTime() (float64, bool) {
	if len(r.Failures) == 0 {
		return 0, false
	}
	return r.Failures[0].Time, true
}

// GroupDCDTAfter returns group g's steady-state average visiting
// interval: the AvgDCDT of the group's member targets after t0.
func (r *Result) GroupDCDTAfter(g int, t0 float64) float64 {
	return r.Recorder.AvgDCDTAfterOver(r.Groups[g].Targets, t0)
}

// GroupSDAfter returns group g's steady-state interval SD over its
// member targets after t0.
func (r *Result) GroupSDAfter(g int, t0 float64) float64 {
	return r.Recorder.AvgSDAfterOver(r.Groups[g].Targets, t0)
}

// TotalEnergy returns the fleet's total energy consumption in joules.
func (r *Result) TotalEnergy() float64 {
	t := 0.0
	for _, m := range r.Mules {
		t += m.EnergyConsumed
	}
	return t
}

// TotalVisits returns the fleet's total collection count.
func (r *Result) TotalVisits() int {
	t := 0
	for _, m := range r.Mules {
		t += m.Visits
	}
	return t
}

// EnergyPerVisit returns joules consumed per collection — the paper's
// "energy efficiency of DM" notion. Returns 0 when nothing was
// collected.
func (r *Result) EnergyPerVisit() float64 {
	v := r.TotalVisits()
	if v == 0 {
		return 0
	}
	return r.TotalEnergy() / float64(v)
}

// DeadMules counts mules that exhausted their battery.
func (r *Result) DeadMules() int {
	n := 0
	for _, m := range r.Mules {
		if m.Dead {
			n++
		}
	}
	return n
}

// Algorithm is anything that can be executed by Run: either a fixed-
// route planner (via Planned) or an online policy (via Online).
type Algorithm interface {
	Name() string
	// prepare returns the plan of a plan-based algorithm, whose
	// routers Run builds, or one router per mule of an online one.
	prepare(s *field.Scenario, src *xrand.Source) ([]mule.Router, *core.FleetPlan, error)
}

// Planned adapts a core.Planner (B/W/RW-TCTP, CHB, Sweep) to
// Algorithm.
func Planned(p core.Planner) Algorithm { return plannedAlg{p} }

type plannedAlg struct{ p core.Planner }

func (a plannedAlg) Name() string { return a.p.Name() }

func (a plannedAlg) prepare(s *field.Scenario, _ *xrand.Source) ([]mule.Router, *core.FleetPlan, error) {
	plan, err := a.p.Plan(s)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.Validate(s); err != nil {
		return nil, nil, err
	}
	return nil, plan, nil
}

// planRouters builds one mule.Route per route, holding every mule at
// its start point until the synchronized patrol start.
func planRouters(plan *core.FleetPlan, opts Options, n int) []mule.Route {
	hold := 0.0
	if !opts.NoSynchronizedStart {
		// The slowest mule travelling the longest approach bounds every
		// arrival, so holding until then starts the fleet together even
		// when speeds differ. For a homogeneous fleet this is exactly
		// MaxApproach / Speed.
		hold = plan.MaxApproach / opts.slowestSpeed(n)
	}
	return newPlanRouters(plan.Routes, hold)
}

// Partitioned derives the per-region variant of a plan-based
// algorithm: the underlying planner must implement core.Partitionable
// (B-TCTP → C-BTCTP, W-TCTP → C-WTCTP). src seeds the partition's
// randomness and may be nil. Online algorithms and planners without a
// partitioned form are refused.
func Partitioned(a Algorithm, cfg core.PartitionConfig, src *xrand.Source) (Algorithm, error) {
	pa, ok := a.(plannedAlg)
	if !ok {
		return nil, fmt.Errorf("patrol: %s has no plan to partition", a.Name())
	}
	p, ok := pa.p.(core.Partitionable)
	if !ok {
		return nil, fmt.Errorf("patrol: planner %s has no partitioned variant", pa.p.Name())
	}
	return Planned(p.Partitioned(cfg, src)), nil
}

// RouterMaker is an online algorithm that builds one router per mule.
type RouterMaker interface {
	Name() string
	NewRouters(s *field.Scenario, src *xrand.Source) []mule.Router
}

// Online adapts a RouterMaker (e.g. baseline.Random) to Algorithm.
func Online(m RouterMaker) Algorithm { return onlineAlg{m} }

type onlineAlg struct{ m RouterMaker }

func (a onlineAlg) Name() string { return a.m.Name() }

func (a onlineAlg) prepare(s *field.Scenario, src *xrand.Source) ([]mule.Router, *core.FleetPlan, error) {
	return a.m.NewRouters(s, src), nil, nil
}

// newPlanRouters builds one mule.Route per route in one block,
// carving every route's leg and phase tables from one flat array each.
// Each route holds its mule at its start point, the last approach
// stop, until hold plus the route's ExtraHold.
func newPlanRouters(routes []core.MuleRoute, hold float64) []mule.Route {
	nl, np := 0, 0
	for _, r := range routes {
		for _, ph := range r.Cycle {
			nl += len(ph.Stops) + 1
		}
		np += len(r.Cycle)
	}
	legs, phases := make([]mule.Leg, 0, nl), make([]mule.Phase, 0, np)
	rs := make([]mule.Route, len(routes))
	for i, r := range routes {
		l0, p0 := len(legs), len(phases)
		for p, ph := range r.Cycle {
			prev := r.Cycle[(p+len(r.Cycle)-1)%len(r.Cycle)].Stops
			legs, phases = mule.AppendPhase(legs, phases, ph.Stops, ph.Repeat, prev[len(prev)-1].Pos)
		}
		rs[i] = mule.NewRoute(r.Approach, hold+r.ExtraHold,
			legs[l0:len(legs):len(legs)], phases[p0:len(phases):len(phases)])
	}
	return rs
}

// visitCaps bounds each target's visit count over the horizon from
// the plan's routes, so the recorder can carve every target's log from
// one flat block and never grow it. A route's period is at least its
// cycle length over the mule's speed plus one dwell per target stop,
// so within the horizon it starts at most ⌊Horizon/period⌋+1 cycles;
// each target is granted its occurrences per cycle times one cycle
// more than that, plus its approach occurrences. The same count bounds
// the run's events: each mule's launch, each approach leg and each
// cycle leg is one event. Online algorithms (no plan) get no
// capacities, and neither does a plan with a zero-length period (whose
// event count only MaxEvents bounds) or one whose event bound exceeds
// MaxEvents: their logs grow as they fill. Capacities only size
// allocations, never recorded values. Non-nil caps therefore also
// prove that the MaxEvents guard cannot stop the run before the
// horizon, which runsAhead relies on.
func visitCaps(n int, plan *core.FleetPlan, opts Options) []int {
	if plan == nil {
		return nil
	}
	caps := make([]int, n)
	events := 0.0
	for i, r := range plan.Routes {
		length, stops, legs := 0.0, 0, 0
		for p, ph := range r.Cycle {
			prev := r.Cycle[(p+len(r.Cycle)-1)%len(r.Cycle)].Stops
			last := ph.Stops[len(ph.Stops)-1].Pos
			in := 0.0
			for j := 1; j < len(ph.Stops); j++ {
				in += ph.Stops[j-1].Pos.Dist(ph.Stops[j].Pos)
			}
			length += prev[len(prev)-1].Pos.Dist(ph.Stops[0].Pos) +
				float64(ph.Repeat-1)*last.Dist(ph.Stops[0].Pos) + float64(ph.Repeat)*in
			for _, wp := range ph.Stops {
				if wp.TargetID != mule.NoTarget {
					stops += ph.Repeat
				}
			}
			legs += ph.Repeat * len(ph.Stops)
		}
		period := length/opts.muleSpeed(i) + float64(stops)*opts.Energy.Dwell
		if !(period > 0) {
			return nil
		}
		cycles := math.Floor(opts.Horizon/period) + 2
		events += 1 + float64(len(r.Approach)) + cycles*float64(legs)
		if !(events <= float64(opts.MaxEvents)) { // a NaN horizon bounds nothing
			return nil
		}
		for _, wp := range r.Approach {
			if wp.TargetID != mule.NoTarget {
				caps[wp.TargetID]++
			}
		}
		for _, ph := range r.Cycle {
			for _, wp := range ph.Stops {
				if wp.TargetID != mule.NoTarget {
					caps[wp.TargetID] += ph.Repeat * int(cycles)
				}
			}
		}
	}
	return caps
}

// runsAhead reports whether Run may run mule i, on route r, ahead of
// the engine with mule.RunUntil: whether nothing in the run depends on
// the order of its events relative to other mules'. That holds when
// the run's events provably stay within MaxEvents (caps, from
// visitCaps, is non-nil), the run has no observers and no event
// schedule, and the mule has no battery and no recharge stop. Its visit
// times then depend on nothing but its own route, whichever clock it
// keeps, and the recorder, the one observer left, merges the runs its
// logs gather (see Run).
func runsAhead(i int, r core.MuleRoute, caps []int, opts Options) bool {
	if caps == nil || len(opts.Observers) > 0 || len(opts.Events) > 0 || opts.UseBattery ||
		i < len(opts.Fleet) && opts.Fleet[i].Battery > 0 {
		return false
	}
	for _, wp := range r.Approach {
		if wp.Recharge {
			return false
		}
	}
	for _, ph := range r.Cycle {
		for _, wp := range ph.Stops {
			if wp.Recharge {
				return false
			}
		}
	}
	return true
}

// Run executes the algorithm on the scenario until opts.Horizon and
// returns the collected metrics. src drives any randomness the
// algorithm needs (it may be nil for deterministic planners).
//
// Mules whose visit times depend on nothing but their own routes (see
// runsAhead) run ahead: each patrols to the horizon on its own clock
// with mule.RunUntil before the engine starts, and only the rest of the
// fleet goes through the event heap. In the static, battery-free world
// of the paper's figures that is every mule of a plan, whether it
// patrols targets of its own (Sweep) or shares a circuit (B-TCTP,
// W-TCTP, CHB). Such a mule runs its cycle from its route's compiled
// leg table and appends its visits straight to its targets' logs in the
// recorder, which is the run's only observer. A target's log thus
// gathers one time-sorted run per mule that visits it, the engine's
// mules counting as one, and the recorder merges them before Run
// returns. A log is the sorted multiset of its visit times, so the
// results are bit-identical to running every mule on the engine, which
// attaching any observer does.
func Run(s *field.Scenario, alg Algorithm, opts Options, src *xrand.Source) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.Fleet != nil && len(opts.Fleet) != s.NumMules() {
		return nil, fmt.Errorf("patrol: options carry %d fleet members for %d mules",
			len(opts.Fleet), s.NumMules())
	}
	if src == nil {
		src = xrand.New(0)
	}
	events, active, err := normalizeEvents(s, opts)
	if err != nil {
		return nil, err
	}

	var routers []mule.Router
	var plan *core.FleetPlan
	if active != nil {
		// Some targets start dormant: plan on the reduced view (active
		// targets only, renumbered) and remap back to global ids. The
		// plan was validated in view space; the global form deliberately
		// omits the dormant targets, so it is not re-validated against s.
		pa, ok := alg.(plannedAlg)
		if !ok {
			return nil, fmt.Errorf("patrol: %s cannot patrol dormant targets (target spawns need a plan)", alg.Name())
		}
		view, tids, _, verr := core.ActiveView(s, active, nil, nil)
		if verr != nil {
			return nil, verr
		}
		local, lerr := pa.p.Plan(view)
		if lerr != nil {
			return nil, lerr
		}
		if verr := local.Validate(view); verr != nil {
			return nil, verr
		}
		plan = core.RemapPlan(local, tids)
	} else {
		routers, plan, err = alg.prepare(s, src)
		if err != nil {
			return nil, err
		}
	}
	var rs []mule.Route
	n := len(routers)
	if plan != nil {
		rs = planRouters(plan, opts, s.NumMules())
		n = len(rs)
	}
	if n != s.NumMules() {
		return nil, fmt.Errorf("patrol: %s produced %d routers for %d mules",
			alg.Name(), n, s.NumMules())
	}

	eng := sim.New()
	caps := visitCaps(s.NumTargets(), plan, opts)
	rec := metrics.NewRecorderCap(s.NumTargets(), caps)
	// The recorder is the first observer; user observers follow in
	// registration order, all peers of one dispatch.
	dispatch := make(multiObserver, 0, 1+len(opts.Observers))
	dispatch = append(dispatch, rec)
	dispatch = append(dispatch, opts.Observers...)
	onDeath := dispatch.OnDeath
	var rp *replanner
	if len(events) > 0 {
		alive := make([]bool, s.NumMules())
		for i := range alive {
			alive[i] = true
		}
		var groups []core.PatrolGroup
		if plan != nil {
			groups = append(groups, plan.Groups...)
		}
		rp = &replanner{s: s, opts: opts, eng: eng, alive: alive, active: active, groups: groups}
		// Every death — injected or emergent battery exhaustion —
		// updates the alive mask, so later replans never route a
		// battery-dead mule.
		onDeath = func(id int, t float64, pos geom.Point) {
			rp.alive[id] = false
			dispatch.OnDeath(id, t, pos)
		}
	}
	mules := make([]*mule.Mule, s.NumMules())
	for i := range mules {
		var battery *energy.Battery
		switch {
		case i < len(opts.Fleet) && opts.Fleet[i].Battery > 0:
			battery = energy.NewBattery(opts.Fleet[i].Battery)
		case opts.UseBattery:
			battery = energy.NewBattery(opts.Energy.Capacity)
		}
		var router mule.Router
		if plan != nil {
			router = &rs[i]
		} else {
			router = routers[i]
		}
		mules[i] = mule.New(eng, mule.Config{
			ID:         i,
			Start:      s.MuleStarts[i],
			Speed:      opts.muleSpeed(i),
			Energy:     opts.Energy,
			Battery:    battery,
			Router:     router,
			OnVisit:    dispatch.OnVisit,
			OnDeath:    onDeath,
			OnRecharge: dispatch.OnRecharge,
		})
		if plan != nil && runsAhead(i, plan.Routes[i], caps, opts) {
			rec.AllowRuns()
			rs[i].Compile(rec)
			mules[i].RunUntil(opts.Horizon)
		} else {
			mules[i].Launch()
		}
	}
	if rp != nil {
		rp.mules = mules
		rp.schedule(events)
	}

	// Drive the simulation to the horizon, bounded by the MaxEvents
	// safety valve (protects against accidental zero-delay loops).
	var executed uint64
	for executed < opts.MaxEvents {
		next, ok := eng.NextEventTime()
		if !ok || next > opts.Horizon {
			break
		}
		eng.Step()
		executed++
		if rp != nil && rp.err != nil {
			return nil, rp.err
		}
	}
	if executed < opts.MaxEvents {
		eng.RunUntil(opts.Horizon) // no events remain ≤ horizon; set the clock
	}
	rec.MergeRuns()

	res := &Result{
		Algorithm: alg.Name(),
		Recorder:  rec,
		Mules:     make([]MuleStats, len(mules)),
		Plan:      plan,
	}
	if rp != nil {
		res.Failures = rp.failures
		res.Replans = rp.replans
	}
	if plan != nil && !opts.NoSynchronizedStart {
		res.PatrolStart = plan.MaxApproach / opts.slowestSpeed(s.NumMules())
	}
	for i, m := range mules {
		res.Mules[i] = MuleStats{
			Distance:       m.Distance(),
			EnergyConsumed: m.EnergyConsumed(),
			Visits:         m.Visits(),
			Recharges:      m.Recharges(),
			Dead:           m.Dead(),
		}
	}
	if plan != nil {
		pts := s.Points()
		res.Groups = make([]GroupStats, len(plan.Groups))
		for gi := range plan.Groups {
			g := &plan.Groups[gi]
			gs := GroupStats{
				Targets:    g.Targets,
				Mules:      g.Mules,
				WalkLength: g.Walk.Length(pts),
			}
			for _, mi := range g.Mules {
				gs.Distance += res.Mules[mi].Distance
				gs.Visits += res.Mules[mi].Visits
				gs.EnergyConsumed += res.Mules[mi].EnergyConsumed
			}
			res.Groups[gi] = gs
		}
	}
	return res, nil
}
