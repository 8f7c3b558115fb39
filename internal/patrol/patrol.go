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
	// when the whole run's events up to the horizon provably stay
	// within MaxEvents — by the plan's routes, or for an online
	// algorithm by m·(2 + ⌊2·Horizon/dwell⌋) for m mules, each arrival
	// at least half a dwell after the one before (see onlineEvents) —
	// so the guard never stops such a run, whichever clock its mules
	// keep.
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
	// every plan mule with no battery and no recharge stop may run
	// ahead, whether or not it shares targets, and so may an online
	// algorithm's mules whose maker declares IndependentRouters (see
	// Run).
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
	// Recorder holds the per-target visit log. It belongs to the
	// Scratch that ran: its next run overwrites it (see Scratch.Run).
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
	// Events counts the engine events the run executed. A mule that
	// runs ahead (see Run) spends none, so a run whose every mule ran
	// ahead executes 0.
	Events uint64
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
	// prepare returns the plan of a plan-based algorithm, carved from
	// a, whose routers Run builds, or one router per mule of an online
	// one.
	prepare(s *field.Scenario, src *xrand.Source, a *core.Arena) ([]mule.Router, *core.FleetPlan, error)
}

// Planned adapts a core.Planner (B/W/RW-TCTP, CHB, Sweep) to
// Algorithm.
func Planned(p core.Planner) Algorithm { return plannedAlg{p: p} }

// Memoized returns alg planning its point-set stage through memo (see
// core.Memo) when alg is plan-based and its planner is a
// core.MemoPlanner; any other algorithm, or a nil memo, leaves alg as
// it is. Its plans are bit-identical to alg's: the memo only spares
// repeated builds of the same circuit or path across runs that share
// it.
func Memoized(alg Algorithm, memo *core.Memo) Algorithm {
	if pa, ok := alg.(plannedAlg); ok && memo != nil {
		if _, ok := pa.p.(core.MemoPlanner); ok {
			pa.memo = memo
			return pa
		}
	}
	return alg
}

type plannedAlg struct {
	p    core.Planner
	memo *core.Memo // set by Memoized, only for a core.MemoPlanner
}

func (a plannedAlg) Name() string { return a.p.Name() }

// plan runs the planner, through the memo when there is one, carving
// the plan from arena when the planner is a core.MemoPlanner.
func (a plannedAlg) plan(s *field.Scenario, arena *core.Arena) (*core.FleetPlan, error) {
	if mp, ok := a.p.(core.MemoPlanner); ok {
		return mp.PlanMemo(s, a.memo, arena)
	}
	return a.p.Plan(s)
}

func (a plannedAlg) prepare(s *field.Scenario, _ *xrand.Source, arena *core.Arena) ([]mule.Router, *core.FleetPlan, error) {
	plan, err := a.plan(s, arena)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.Validate(s); err != nil {
		return nil, nil, err
	}
	return nil, plan, nil
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
// Its mules go through the event heap, in global time order, unless
// the maker also implements IndependentRouters.
type RouterMaker interface {
	Name() string
	NewRouters(s *field.Scenario, src *xrand.Source) []mule.Router
}

// IndependentRouters is the optional interface of a RouterMaker whose
// routers each depend on nothing but their own mule and a random
// stream of their own: a router's Next reads its mule and data fixed
// before the run, and draws only from its own stream, so the waypoints
// it hands out do not depend on when the other mules ask for theirs.
// Every waypoint they hand out is a target, where the mule dwells.
// Run may then run the maker's mules ahead of the engine (see Run).
// Run checks for the interface and never infers the property: a maker
// declares it by implementing RoutersIndependent, which is never
// called.
type IndependentRouters interface {
	RoutersIndependent()
}

// Online adapts a RouterMaker (e.g. baseline.Random) to Algorithm.
func Online(m RouterMaker) Algorithm { return onlineAlg{m} }

type onlineAlg struct{ m RouterMaker }

func (a onlineAlg) Name() string { return a.m.Name() }

func (a onlineAlg) prepare(s *field.Scenario, src *xrand.Source, _ *core.Arena) ([]mule.Router, *core.FleetPlan, error) {
	return a.m.NewRouters(s, src), nil, nil
}

// newPlanRouters builds one mule.Route per route in one block,
// carving every route's leg and phase tables from one flat array each.
// Each route holds its mule at its start point, the last approach
// stop, until hold plus the route's ExtraHold.
func newPlanRouters(routes []core.MuleRoute, hold float64) []mule.Route {
	rs, _, _ := planRouters(routes, hold, nil, nil, nil)
	return rs
}

// planRouters is newPlanRouters building its routes in rs and carving
// their tables from legs and phases, each replaced by a buffer of at
// least twice its capacity when short; it returns the three.
func planRouters(routes []core.MuleRoute, hold float64, rs []mule.Route, legs []mule.Leg, phases []mule.Phase) ([]mule.Route, []mule.Leg, []mule.Phase) {
	nl, np := 0, 0
	for _, r := range routes {
		for _, ph := range r.Cycle {
			nl += len(ph.Stops) + 1
		}
		np += len(r.Cycle)
	}
	legs, phases = room(legs, nl), room(phases, np)
	rs = room(rs, len(routes))[:len(routes)]
	for i, r := range routes {
		l0, p0 := len(legs), len(phases)
		for p, ph := range r.Cycle {
			prev := r.Cycle[(p+len(r.Cycle)-1)%len(r.Cycle)].Stops
			legs, phases = mule.AppendPhase(legs, phases, ph.Stops, ph.Repeat, prev[len(prev)-1].Pos)
		}
		rs[i] = mule.NewRoute(r.Approach, hold+r.ExtraHold,
			legs[l0:len(legs):len(legs)], phases[p0:len(phases):len(phases)])
	}
	return rs, legs, phases
}

// room returns s emptied, or an empty buffer of at least twice its
// capacity when s holds fewer than n elements.
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, 2*cap(s)))
	}
	return s[:0]
}

// visitCaps bounds each target's log entries over the horizon from the
// plan's routes (mule.Route.Bound), each for the clock its mule will
// keep (see runsAhead), so the recorder can carve every target's log
// from its backing memory and never grow it while the run records. The
// same bounds sum to a bound on the run's events. A run without routes
// (an online algorithm) gets no capacities, and neither does a plan
// with a zero-length period (whose event count only MaxEvents bounds)
// or one whose event bound exceeds MaxEvents: their logs grow as they
// fill. Capacities only size allocations, never recorded values.
// Non-nil caps therefore also prove that the MaxEvents guard cannot
// stop the run before the horizon, which the mules that run ahead rely
// on.
func visitCaps(n int, rs []mule.Route, opts Options) []int {
	return visitCapsInto(make([]int, n), rs, opts)
}

// visitCapsInto is visitCaps filling caps, zeroed, with one capacity
// per target.
func visitCapsInto(caps []int, rs []mule.Route, opts Options) []int {
	if rs == nil {
		return nil
	}
	events := 0.0
	for i := range rs {
		events += rs[i].Bound(caps, opts.muleSpeed(i), opts.Energy, opts.Horizon, runsAhead(i, rs, opts))
		if !(events <= float64(opts.MaxEvents)) { // a NaN horizon bounds nothing
			return nil
		}
	}
	return caps
}

// onlineEvents bounds the engine events one online mule spends up to
// horizon h when every stop, a target visit (see IndependentRouters),
// holds it at least dwell: its launch at 0 and one event per arrival
// at or before h, 2 + ⌊2h/dwell⌋ in all, or +Inf when nothing bounds
// them.
//
// The mule departs from its arrival a at fl(a + w), w ≥ dwell the
// stop's hold, and arrives fl(fl(a + w) + d) ≥ fl(a + w) later for a
// leg of d ≥ 0 seconds, rounding being monotone. For a ≤ h the sum
// a + dwell is at most h + dwell, so rounding it to nearest errs by at
// most u/2, u the spacing of floats at fl(h + dwell). While u ≤ dwell
// each arrival thus comes at least dwell − u/2 ≥ dwell/2 after the one
// before, so at most 1 + ⌊2h/dwell⌋ arrivals fall at or before h (the
// first at 0 or later). Once h/dwell nears 2^52, u exceeds dwell,
// fl(a + dwell) may round back to a and the clock may stall: nothing
// bounds the arrivals, as nothing does for a zero dwell.
func onlineEvents(dwell, h float64) float64 {
	h = max(h, 0)
	x := h + dwell
	if !(dwell > 0) || !(math.Nextafter(x, math.Inf(1))-x <= dwell) {
		return math.Inf(1)
	}
	return 2 + math.Floor(2*h/dwell)
}

// onlineWithin reports whether m online mules, each spending at most
// per engine events (see onlineEvents), stay within MaxEvents, so that
// the guard cannot stop their run before the horizon. It compares
// integers: per is an integer count, and a per of 2^64 or more, +Inf
// or NaN bounds nothing.
func onlineWithin(m int, per float64, maxEvents uint64) bool {
	return m > 0 && per < 1<<64 && uint64(per) <= maxEvents/uint64(m)
}

// runsAhead reports whether Run may run mule i ahead of the engine with
// mule.RunUntil, once the run's events are proven to stay within
// MaxEvents (by visitCaps for a plan's routes rs, by onlineWithin for
// an online algorithm's mules, for which rs is nil): whether nothing in
// the run depends on the order of its events relative to other mules'.
// That holds when the run has no observers and no event schedule, and
// the mule has no battery and, on a route, no recharge stop. Its visit
// times then depend on nothing but its own router, whichever clock it
// keeps, and the recorder, the one observer left, merges the runs its
// logs gather (see Run).
func runsAhead(i int, rs []mule.Route, opts Options) bool {
	return len(opts.Observers) == 0 && len(opts.Events) == 0 && !opts.UseBattery &&
		!(i < len(opts.Fleet) && opts.Fleet[i].Battery > 0) && (rs == nil || !rs[i].Recharges())
}

// Run executes the algorithm on the scenario until opts.Horizon and
// returns the collected metrics. src drives any randomness the
// algorithm needs (it may be nil for deterministic planners).
//
// Mules whose visit times depend on nothing but their own routers (see
// runsAhead) run ahead: each patrols to the horizon on its own clock
// with mule.RunUntil before the engine starts, and only the rest of the
// fleet goes through the event heap. In the static, battery-free world
// of the paper's figures that is every mule of a plan, whether it
// patrols targets of its own (Sweep) or shares a circuit (B-TCTP,
// W-TCTP, CHB); such a mule runs its cycle from its route's compiled
// leg table and appends its visits straight to its targets' logs in the
// recorder, which is the run's only observer. An online algorithm's
// mules run ahead too when its maker declares IndependentRouters
// (Random does) and the dwell is positive: then no mule can spend more
// than onlineEvents' bound, and the run stays on the engine unless the
// fleet's bounds sum to at most MaxEvents. A target's log thus gathers
// one time-sorted run per mule that visits it, the engine's mules
// counting as one. The recorder takes such runs
// (metrics.Recorder.AllowRuns), finds them at the log's descents and
// merges them before Run returns, in one gather when they interleave
// round-robin, as mules evenly spread over one circuit do
// (metrics.Recorder.MergeRuns). A
// log is the sorted multiset of its visit times, so the results are
// bit-identical to running every mule on the engine, which attaching
// any observer does.
func Run(s *field.Scenario, alg Algorithm, opts Options, src *xrand.Source) (*Result, error) {
	return new(Scratch).Run(s, alg, opts, src)
}

// Scratch is the memory of one run after another: the event engine,
// the recorder, the mules, their routes and leg tables, the log
// capacities, the plan's Arena and the Result. Run runs on a fresh
// Scratch; a caller that runs simulation after simulation, one at a
// time, keeps one and calls its Run, which resets and reuses all of it,
// so a warm Scratch allocates nothing for a run no larger than one it
// ran before. The zero value is ready to use. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	eng    sim.Engine
	rec    metrics.Recorder
	arena  core.Arena
	mules  []*mule.Mule
	routes []mule.Route
	legs   []mule.Leg
	phases []mule.Phase
	caps   []int
	pts    []geom.Point
	groups []GroupStats
	res    Result
	// dispatch is the run's observers, the recorder first; visit,
	// death and recharge are its handlers and recVisit the recorder's,
	// bound once for every run.
	dispatch        multiObserver
	visit, recVisit func(muleID, targetID int, t float64)
	death           func(muleID int, t float64, pos geom.Point)
	recharge        func(muleID int, t float64)
}

// Run is the package's Run on sc's memory. The returned Result, its
// Recorder, Plan, Groups and Mules, and every log or slice read from
// them, belong to sc: the next Run overwrites them, so a caller reads
// what it keeps, and copies every slice it keeps, before it runs sc
// again. Nothing sc holds is remembered by a core.Memo, and the
// Scenario, the Options and their observers stay the caller's.
func (sc *Scratch) Run(s *field.Scenario, alg Algorithm, opts Options, src *xrand.Source) (*Result, error) {
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
	if sc.visit == nil {
		sc.visit, sc.recVisit = sc.onVisit, sc.rec.OnVisit
		sc.death, sc.recharge = sc.onDeath, sc.onRecharge
	}

	sc.arena.Reset()
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
		local, lerr := pa.plan(view, &sc.arena)
		if lerr != nil {
			return nil, lerr
		}
		if verr := local.Validate(view); verr != nil {
			return nil, verr
		}
		plan = core.RemapPlan(local, tids)
	} else {
		routers, plan, err = alg.prepare(s, src, &sc.arena)
		if err != nil {
			return nil, err
		}
	}
	var rs []mule.Route
	n, hold := len(routers), 0.0
	if plan != nil {
		if !opts.NoSynchronizedStart {
			// The slowest mule travelling the longest approach bounds
			// every arrival, so holding until then starts the fleet
			// together even when speeds differ. For a homogeneous fleet
			// this is exactly MaxApproach / Speed.
			hold = plan.MaxApproach / opts.slowestSpeed(s.NumMules())
		}
		sc.routes, sc.legs, sc.phases = planRouters(plan.Routes, hold, sc.routes, sc.legs, sc.phases)
		rs = sc.routes
		n = len(rs)
	}
	if n != s.NumMules() {
		return nil, fmt.Errorf("patrol: %s produced %d routers for %d mules",
			alg.Name(), n, s.NumMules())
	}

	eng := &sc.eng
	eng.Reset()
	sc.caps = room(sc.caps, s.NumTargets())[:s.NumTargets()]
	clear(sc.caps)
	caps := visitCapsInto(sc.caps, rs, opts)
	// bounded says that the run's events provably stay within
	// MaxEvents, which the mules that run ahead rely on.
	bounded := caps != nil
	if plan == nil {
		_, declared := alg.(onlineAlg).m.(IndependentRouters)
		bounded = declared && onlineWithin(n, onlineEvents(opts.Energy.Dwell, opts.Horizon), opts.MaxEvents)
	}
	rec := &sc.rec
	rec.Reset(s.NumTargets(), caps)
	// The recorder is the first observer; user observers follow in
	// registration order, all peers of one dispatch.
	sc.dispatch = append(append(sc.dispatch[:0], rec), opts.Observers...)
	onVisit, onDeath := sc.visit, sc.death
	if len(opts.Observers) == 0 {
		onVisit = sc.recVisit
	}
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
			sc.dispatch.OnDeath(id, t, pos)
		}
	}
	for len(sc.mules) < s.NumMules() {
		sc.mules = append(sc.mules, new(mule.Mule))
	}
	mules := sc.mules[:s.NumMules()]
	for i, m := range mules {
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
		m.Reset(eng, mule.Config{
			ID:         i,
			Start:      s.MuleStarts[i],
			Speed:      opts.muleSpeed(i),
			Energy:     opts.Energy,
			Battery:    battery,
			Router:     router,
			OnVisit:    onVisit,
			OnDeath:    onDeath,
			OnRecharge: sc.recharge,
		})
		if bounded && runsAhead(i, rs, opts) {
			rec.AllowRuns() // the mule's visits start a run in each log
			if rs != nil {
				rs[i].Compile(rec)
			}
			m.RunUntil(opts.Horizon)
		} else {
			m.Launch()
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

	res := &sc.res
	*res = Result{
		Algorithm:   alg.Name(),
		Recorder:    rec,
		Mules:       room(res.Mules, len(mules))[:len(mules)],
		Plan:        plan,
		PatrolStart: hold,
		Events:      executed,
	}
	if rp != nil {
		res.Failures = rp.failures
		res.Replans = rp.replans
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
	if plan == nil {
		return res, nil
	}
	sc.pts = s.AppendPoints(room(sc.pts, s.NumTargets()))
	sc.groups = room(sc.groups, len(plan.Groups))
	for gi := range plan.Groups {
		g := &plan.Groups[gi]
		gs := GroupStats{
			Targets:    g.Targets,
			Mules:      g.Mules,
			WalkLength: g.Walk.Length(sc.pts),
		}
		for _, mi := range g.Mules {
			gs.Distance += res.Mules[mi].Distance
			gs.Visits += res.Mules[mi].Visits
			gs.EnergyConsumed += res.Mules[mi].EnergyConsumed
		}
		sc.groups = append(sc.groups, gs)
	}
	res.Groups = sc.groups
	return res, nil
}

// onVisit, onDeath and onRecharge dispatch a visit, a death and a
// recharge to the run's observers.
func (sc *Scratch) onVisit(id, target int, t float64) { sc.dispatch.OnVisit(id, target, t) }

func (sc *Scratch) onDeath(id int, t float64, pos geom.Point) { sc.dispatch.OnDeath(id, t, pos) }

func (sc *Scratch) onRecharge(id int, t float64) { sc.dispatch.OnRecharge(id, t) }
