package mule

import (
	"math"
	"testing"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/sim"
)

// loopRouter cycles through fixed waypoints forever.
type loopRouter struct {
	wps []Waypoint
	i   int
}

func (r *loopRouter) Next(m *Mule) (Waypoint, float64, bool) {
	wp := r.wps[r.i%len(r.wps)]
	r.i++
	return wp, m.Pos().Dist(wp.Pos), true
}

// finiteRouter returns each waypoint once, then parks the mule.
type finiteRouter struct {
	wps []Waypoint
	i   int
}

func (r *finiteRouter) Next(m *Mule) (Waypoint, float64, bool) {
	if r.i >= len(r.wps) {
		return Waypoint{}, 0, false
	}
	wp := r.wps[r.i]
	r.i++
	return wp, m.Pos().Dist(wp.Pos), true
}

func zeroDwell() energy.Model {
	m := energy.Default()
	m.Dwell = 0
	return m
}

// run steps eng until no event remains or max events have run; the
// cap stops the endless loop routes.
func run(eng *sim.Engine, max int) {
	for n := 0; n < max && eng.Step(); n++ {
	}
}

func TestTravelTiming(t *testing.T) {
	eng := sim.New()
	var visitTimes []float64
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(100, 0), TargetID: 1},
			{Pos: geom.Pt(100, 100), TargetID: 2},
		}},
		OnVisit: func(_, _ int, tm float64) { visitTimes = append(visitTimes, tm) },
	})
	m.Launch()
	run(eng, 100)
	if len(visitTimes) != 2 {
		t.Fatalf("visits = %v", visitTimes)
	}
	if math.Abs(visitTimes[0]-50) > 1e-9 { // 100 m at 2 m/s
		t.Fatalf("first visit at %v, want 50", visitTimes[0])
	}
	if math.Abs(visitTimes[1]-100) > 1e-9 {
		t.Fatalf("second visit at %v, want 100", visitTimes[1])
	}
	if !m.parked {
		t.Fatal("mule not parked after finite route")
	}
	if math.Abs(m.Distance()-200) > 1e-9 {
		t.Fatalf("Distance = %v", m.Distance())
	}
	if m.Visits() != 2 {
		t.Fatalf("Visits = %d", m.Visits())
	}
}

func TestDwellDelaysNextLeg(t *testing.T) {
	eng := sim.New()
	model := energy.Default()
	model.Dwell = 10
	var times []float64
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: model,
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(20, 0), TargetID: 1}, // arrive t=10
			{Pos: geom.Pt(40, 0), TargetID: 2}, // leave t=20, arrive t=30
		}},
		OnVisit: func(_, _ int, tm float64) { times = append(times, tm) },
	})
	m.Launch()
	run(eng, 100)
	if math.Abs(times[0]-10) > 1e-9 || math.Abs(times[1]-30) > 1e-9 {
		t.Fatalf("visit times = %v, want [10 30]", times)
	}
}

func TestLoopRouteSteadyInterval(t *testing.T) {
	// A mule on a square loop must visit each corner at a fixed
	// period: perimeter / speed.
	eng := sim.New()
	visits := map[int][]float64{}
	r := &loopRouter{wps: []Waypoint{
		{Pos: geom.Pt(100, 0), TargetID: 1},
		{Pos: geom.Pt(100, 100), TargetID: 2},
		{Pos: geom.Pt(0, 100), TargetID: 3},
		{Pos: geom.Pt(0, 0), TargetID: 0},
	}}
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: r,
		OnVisit: func(_, target int, tm float64) {
			visits[target] = append(visits[target], tm)
		},
	})
	m.Launch()
	eng.RunUntil(2000)
	period := 400.0 / 2.0
	for target, ts := range visits {
		for i := 1; i < len(ts); i++ {
			if math.Abs((ts[i]-ts[i-1])-period) > 1e-9 {
				t.Fatalf("target %d interval %v, want %v", target, ts[i]-ts[i-1], period)
			}
		}
	}
}

func TestVisitAtCurrentPosition(t *testing.T) {
	// A waypoint at the mule's current position is a zero-length leg:
	// the visit happens immediately.
	eng := sim.New()
	var tm float64 = -1
	m := New(eng, Config{
		Start:  geom.Pt(5, 5),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{{Pos: geom.Pt(5, 5), TargetID: 7}}},
		OnVisit: func(_, target int, at float64) {
			if target == 7 {
				tm = at
			}
		},
	})
	m.Launch()
	run(eng, 100)
	if tm != 0 {
		t.Fatalf("visit time = %v, want 0", tm)
	}
}

func TestEnergyDrainAndDeath(t *testing.T) {
	// Battery affords exactly 100 m of travel (MoveCost 1 J/m,
	// capacity 100 J): the mule must die at the midpoint of the second
	// 60 m leg, 100 m from the origin.
	eng := sim.New()
	model := energy.Model{MoveCost: 1, CollectCost: 0, Dwell: 0, Capacity: 100}
	b := energy.NewBattery(100)
	var deathAt float64 = -1
	var deathPos geom.Point
	m := New(eng, Config{
		Start:   geom.Pt(0, 0),
		Speed:   2,
		Energy:  model,
		Battery: b,
		Router: &loopRouter{wps: []Waypoint{
			{Pos: geom.Pt(60, 0), TargetID: 1},
			{Pos: geom.Pt(120, 0), TargetID: 2},
		}},
		OnDeath: func(_ int, tm float64, pos geom.Point) { deathAt, deathPos = tm, pos },
	})
	m.Launch()
	run(eng, 1000)
	if !m.Dead() {
		t.Fatal("mule survived an unaffordable route")
	}
	if math.Abs(deathAt-50) > 1e-9 { // 100 m at 2 m/s
		t.Fatalf("death at t=%v, want 50", deathAt)
	}
	if !deathPos.Eq(geom.Pt(100, 0)) {
		t.Fatalf("death pos %v, want (100,0)", deathPos)
	}
	if b.CanAfford(0) {
		t.Fatal("battery not dead")
	}
	if m.Visits() != 1 {
		t.Fatalf("Visits = %d, want 1 (only the first target reached)", m.Visits())
	}
}

func TestRechargeRestoresBattery(t *testing.T) {
	eng := sim.New()
	model := energy.Model{MoveCost: 1, CollectCost: 0, Dwell: 0, Capacity: 150}
	b := energy.NewBattery(150)
	recharges := 0
	m := New(eng, Config{
		Start:   geom.Pt(0, 0),
		Speed:   2,
		Energy:  model,
		Battery: b,
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(100, 0), TargetID: 1},
			{Pos: geom.Pt(100, 50), TargetID: NoTarget, Recharge: true},
			{Pos: geom.Pt(0, 50), TargetID: 2},
		}},
		OnRecharge: func(_ int, _ float64) { recharges++ },
	})
	m.Launch()
	run(eng, 1000)
	if m.Dead() {
		t.Fatal("mule died despite recharge")
	}
	if recharges != 1 || m.Recharges() != 1 {
		t.Fatalf("recharges = %d/%d", recharges, m.Recharges())
	}
	// After recharge (full 150 J) the mule spent 100 J on the last
	// leg: 50 J remain.
	if math.Abs(b.Level()-50) > 1e-9 {
		t.Fatalf("battery level = %v, want 50", b.Level())
	}
	if m.Visits() != 2 {
		t.Fatalf("Visits = %d", m.Visits())
	}
}

func TestNonTargetWaypointNotCounted(t *testing.T) {
	eng := sim.New()
	visits := 0
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  1,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(10, 0), TargetID: NoTarget},
			{Pos: geom.Pt(20, 0), TargetID: 3},
		}},
		OnVisit: func(_, _ int, _ float64) { visits++ },
	})
	m.Launch()
	run(eng, 100)
	if visits != 1 || m.Visits() != 1 {
		t.Fatalf("visits = %d/%d, want 1", visits, m.Visits())
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng := sim.New()
	model := energy.Model{MoveCost: 2, CollectCost: 0.5, Dwell: 4, Capacity: 1e6}
	b := energy.NewBattery(1e6)
	m := New(eng, Config{
		Start:   geom.Pt(0, 0),
		Speed:   1,
		Energy:  model,
		Battery: b,
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(100, 0), TargetID: 1},
		}},
	})
	m.Launch()
	run(eng, 100)
	// 100 m × 2 J/m + 0.5 J/s × 4 s dwell = 202 J.
	if math.Abs(m.EnergyConsumed()-202) > 1e-9 {
		t.Fatalf("EnergyConsumed = %v, want 202", m.EnergyConsumed())
	}
	if math.Abs(b.Level()-(1e6-202)) > 1e-6 {
		t.Fatalf("battery level = %v", b.Level())
	}
}

func TestDeathDuringCollection(t *testing.T) {
	// Enough energy to reach the target but not to collect from it.
	eng := sim.New()
	model := energy.Model{MoveCost: 1, CollectCost: 10, Dwell: 1, Capacity: 105}
	b := energy.NewBattery(105)
	died := false
	m := New(eng, Config{
		Start:   geom.Pt(0, 0),
		Speed:   1,
		Energy:  model,
		Battery: b,
		Router: &loopRouter{wps: []Waypoint{
			{Pos: geom.Pt(100, 0), TargetID: 1},
			{Pos: geom.Pt(0, 0), TargetID: 2},
		}},
		OnDeath: func(_ int, _ float64, _ geom.Point) { died = true },
	})
	m.Launch()
	run(eng, 1000)
	if !died || !m.Dead() {
		t.Fatal("mule should die during collection (5 J left, 10 J needed)")
	}
}

func TestUnconstrainedBatteryNeverDies(t *testing.T) {
	eng := sim.New()
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &loopRouter{wps: []Waypoint{
			{Pos: geom.Pt(400, 0), TargetID: 1},
			{Pos: geom.Pt(0, 0), TargetID: 2},
		}},
	})
	m.Launch()
	eng.RunUntil(100000)
	if m.Dead() {
		t.Fatal("unconstrained mule died")
	}
	if m.Visits() < 100 {
		t.Fatalf("Visits = %d, expected many", m.Visits())
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero speed accepted")
			}
		}()
		New(eng, Config{Speed: 0, Router: &loopRouter{wps: []Waypoint{{}}}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil router accepted")
			}
		}()
		New(eng, Config{Speed: 1})
	}()
}

// TestMuleID: the configured id is the one the mule's callbacks
// report, here OnDeath when a parked mule is killed.
func TestMuleID(t *testing.T) {
	eng := sim.New()
	id := -1
	m := New(eng, Config{ID: 42, Speed: 1, Energy: zeroDwell(),
		Router:  &finiteRouter{},
		OnDeath: func(muleID int, _ float64, _ geom.Point) { id = muleID }})
	m.Launch()
	run(eng, 10)
	if !m.parked {
		t.Fatal("empty route should park immediately")
	}
	m.Kill()
	if id != 42 {
		t.Fatalf("OnDeath reported mule %d, want 42", id)
	}
}

func TestNotBeforeHoldsMule(t *testing.T) {
	eng := sim.New()
	var visitAt float64 = -1
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(20, 0), TargetID: NoTarget, NotBefore: 100}, // arrive t=10, hold to 100
			{Pos: geom.Pt(40, 0), TargetID: 1},                        // depart 100, arrive 110
		}},
		OnVisit: func(_, _ int, tm float64) { visitAt = tm },
	})
	m.Launch()
	run(eng, 100)
	if visitAt != 110 {
		t.Fatalf("visit at %v, want 110 (hold ignored?)", visitAt)
	}
}

func TestNotBeforeInPastIsNoop(t *testing.T) {
	eng := sim.New()
	var visitAt float64 = -1
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(20, 0), TargetID: NoTarget, NotBefore: 5}, // arrive t=10 > 5
			{Pos: geom.Pt(40, 0), TargetID: 1},
		}},
		OnVisit: func(_, _ int, tm float64) { visitAt = tm },
	})
	m.Launch()
	run(eng, 100)
	if visitAt != 20 {
		t.Fatalf("visit at %v, want 20", visitAt)
	}
}

func TestNotBeforeCombinesWithDwell(t *testing.T) {
	// At a target waypoint the mule stays max(dwell, hold remaining).
	eng := sim.New()
	model := energy.Default()
	model.Dwell = 3
	var times []float64
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: model,
		Router: &finiteRouter{wps: []Waypoint{
			{Pos: geom.Pt(20, 0), TargetID: 1, NotBefore: 50}, // arrive 10, visit 10, leave 50
			{Pos: geom.Pt(40, 0), TargetID: 2},                // arrive 60
		}},
		OnVisit: func(_, _ int, tm float64) { times = append(times, tm) },
	})
	m.Launch()
	run(eng, 100)
	if len(times) != 2 || times[0] != 10 || times[1] != 60 {
		t.Fatalf("visit times = %v, want [10 60]", times)
	}
}

func TestKillMidLegInterpolates(t *testing.T) {
	eng := sim.New()
	var deathT float64
	var deathPos geom.Point
	m := New(eng, Config{
		Start:  geom.Pt(0, 0),
		Speed:  2,
		Energy: zeroDwell(),
		Router: &finiteRouter{wps: []Waypoint{{Pos: geom.Pt(100, 0), TargetID: 1}}},
		OnDeath: func(_ int, tm float64, p geom.Point) {
			deathT, deathPos = tm, p
		},
	})
	m.Launch()
	eng.Schedule(25, m.Kill) // halfway along the 50 s leg
	eng.RunUntil(100)
	if !m.Dead() {
		t.Fatal("mule not dead after Kill")
	}
	if deathT != 25 {
		t.Fatalf("death at t=%v, want 25", deathT)
	}
	want := geom.Pt(50, 0)
	if math.Abs(deathPos.X-want.X) > 1e-9 || math.Abs(deathPos.Y-want.Y) > 1e-9 {
		t.Fatalf("death position %v, want %v (interpolated mid-leg)", deathPos, want)
	}
	if math.Abs(m.Distance()-50) > 1e-9 {
		t.Fatalf("distance %v, want the 50 m covered before the kill", m.Distance())
	}
	if m.Visits() != 0 {
		t.Fatalf("%d visits counted on an unfinished leg", m.Visits())
	}
	m.Kill() // idempotent
	if deathT != 25 {
		t.Fatal("second Kill re-fired OnDeath")
	}
}

func TestRerouteMidLegContinuesFromInterpolatedPos(t *testing.T) {
	eng := sim.New()
	var visits []float64
	m := New(eng, Config{
		Start:   geom.Pt(0, 0),
		Speed:   2,
		Energy:  zeroDwell(),
		Router:  &finiteRouter{wps: []Waypoint{{Pos: geom.Pt(100, 0), TargetID: 1}}},
		OnVisit: func(_, _ int, tm float64) { visits = append(visits, tm) },
	})
	m.Launch()
	eng.Schedule(25, func() {
		if got := m.PosNow(); math.Abs(got.X-50) > 1e-9 || math.Abs(got.Y) > 1e-9 {
			t.Fatalf("PosNow mid-leg = %v, want (50,0)", got)
		}
		// Turn around: back to the origin, 50 m from here.
		m.Reroute(&finiteRouter{wps: []Waypoint{{Pos: geom.Pt(0, 0), TargetID: 2}}})
	})
	eng.RunUntil(200)
	// Old leg abandoned: exactly one visit, at t = 25 + 50/2 = 50.
	if len(visits) != 1 || math.Abs(visits[0]-50) > 1e-9 {
		t.Fatalf("visits %v, want exactly one at t=50", visits)
	}
	if math.Abs(m.Distance()-100) > 1e-9 {
		t.Fatalf("distance %v, want 50 out + 50 back", m.Distance())
	}
	if !m.parked {
		t.Fatal("mule not parked after the rerouted finite route")
	}
}
