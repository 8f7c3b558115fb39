package energy

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/geom"
)

func TestDefaults(t *testing.T) {
	m := Default()
	if m.MoveCost != 8.267 {
		t.Fatalf("MoveCost = %v", m.MoveCost)
	}
	if m.CollectCost != 0.075 {
		t.Fatalf("CollectCost = %v", m.CollectCost)
	}
	if m.Capacity <= 0 || m.Dwell <= 0 {
		t.Fatal("non-positive defaults")
	}
}

func TestMoveEnergy(t *testing.T) {
	m := Default()
	if got := m.MoveEnergy(100); math.Abs(got-826.7) > 1e-9 {
		t.Fatalf("MoveEnergy(100) = %v", got)
	}
	if got := m.MoveEnergy(0); got != 0 {
		t.Fatalf("MoveEnergy(0) = %v", got)
	}
}

func TestVisitEnergy(t *testing.T) {
	m := Default()
	if got := m.VisitEnergy(); math.Abs(got-0.075) > 1e-12 {
		t.Fatalf("VisitEnergy = %v", got)
	}
	m.Dwell = 10
	if got := m.VisitEnergy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("VisitEnergy dwell=10 = %v", got)
	}
}

func TestRoundEnergyEqu4Terms(t *testing.T) {
	m := Default()
	// |P|·c_m + h·c_s·dwell with |P|=3000 m, h=20.
	want := 3000*8.267 + 20*0.075
	if got := m.RoundEnergy(3000, 20); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RoundEnergy = %v, want %v", got, want)
	}
}

func TestRounds(t *testing.T) {
	m := Model{MoveCost: 1, CollectCost: 0, Dwell: 1, Capacity: 100}
	if r := m.Rounds(30, 5); r != 3 {
		t.Fatalf("Rounds = %d, want 3", r)
	}
	if r := m.Rounds(101, 0); r != 0 {
		t.Fatalf("unaffordable Rounds = %d, want 0", r)
	}
	// Exactly divisible.
	if r := m.Rounds(25, 0); r != 4 {
		t.Fatalf("Rounds exact = %d, want 4", r)
	}
	// Degenerate free path.
	if r := m.Rounds(0, 0); r <= 1000 {
		t.Fatalf("free path Rounds = %d", r)
	}
}

func TestRoundsPaperParameters(t *testing.T) {
	// Sanity: with the paper's constants and a realistic ~3500 m
	// circuit of 20 targets, a 200 kJ battery affords a handful of
	// rounds — the regime where recharge scheduling matters.
	m := Default()
	r := m.Rounds(3500, 20)
	if r < 2 || r > 20 {
		t.Fatalf("Rounds(3500, 20) = %d, expected a small positive count", r)
	}
}

func TestBatteryLifecycle(t *testing.T) {
	b := NewBattery(100)
	if b.Level() != 100 || b.capacity != 100 {
		t.Fatal("fresh battery state wrong")
	}
	if !b.Drain(40) {
		t.Fatal("affordable drain failed")
	}
	if b.Level() != 60 {
		t.Fatalf("Level = %v", b.Level())
	}
	if !b.CanAfford(60) {
		t.Fatal("CanAfford(60) false with 60 J left")
	}
	if b.CanAfford(61) {
		t.Fatal("CanAfford(61) true with 60 J left")
	}
	if b.Drain(61) {
		t.Fatal("overdrain succeeded")
	}
	if !b.dead || b.Level() != 0 {
		t.Fatal("overdrained battery not dead/empty")
	}
	if b.Drain(0) {
		t.Fatal("dead battery accepted drain")
	}
	b.Recharge()
	if b.dead || b.Level() != 100 {
		t.Fatal("recharge did not restore battery")
	}
}

func TestBatteryExactDrain(t *testing.T) {
	b := NewBattery(50)
	if !b.Drain(50) {
		t.Fatal("exact drain failed")
	}
	if b.dead {
		t.Fatal("exact drain killed battery")
	}
	if b.Level() != 0 {
		t.Fatalf("Level = %v", b.Level())
	}
}

func TestBatteryPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewBattery(0) did not panic")
			}
		}()
		NewBattery(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative drain did not panic")
			}
		}()
		NewBattery(10).Drain(-1)
	}()
}

// Property: any sequence of affordable drains keeps level =
// capacity − sum(drains) and never kills the battery.
func TestBatteryConservation(t *testing.T) {
	f := func(raw []uint8) bool {
		b := NewBattery(1e6)
		spent := 0.0
		for _, r := range raw {
			j := float64(r)
			if !b.CanAfford(j) {
				break
			}
			if !b.Drain(j) {
				return false
			}
			spent += j
		}
		return math.Abs(b.Level()-(1e6-spent)) < 1e-6 && !b.dead
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rounds × RoundEnergy never exceeds capacity, and one more
// round would exceed it.
func TestRoundsProperty(t *testing.T) {
	f := func(lenRaw, capRaw uint16, hRaw uint8) bool {
		pathLen := float64(lenRaw%5000) + 1
		capacity := float64(capRaw)*100 + 1
		h := int(hRaw % 100)
		m := Model{MoveCost: 8.267, CollectCost: 0.075, Dwell: 1, Capacity: capacity}
		r := m.Rounds(pathLen, h)
		per := m.RoundEnergy(pathLen, h)
		if float64(r)*per > capacity+1e-9 {
			return false
		}
		return float64(r+1)*per > capacity-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAudit(t *testing.T) {
	a := NewAudit()
	if _, ok := a.FirstDeath(); ok {
		t.Fatal("fresh audit reports a death")
	}
	a.OnVisit(0, 3, 10) // visits are not energy events
	a.OnRecharge(0, 50)
	a.OnDeath(1, 200, geom.Pt(1, 2))
	a.OnDeath(0, 120, geom.Pt(3, 4))
	a.OnRecharge(1, 300)
	if a.Deaths() != 2 || a.Recharges() != 2 {
		t.Fatalf("deaths=%d recharges=%d", a.Deaths(), a.Recharges())
	}
	if first, ok := a.FirstDeath(); !ok || first != 120 {
		t.Fatalf("FirstDeath = %v, %v", first, ok)
	}
}
