// Package energy models the data mules' batteries. The paper's §5.1
// simulation model charges 8.267 J per metre of movement and
// 0.075 J/s while collecting data from a target; §4.2 (Equ. 4) derives
// from these the number of full patrolling rounds a mule can afford
// before it must detour through the recharge station.
package energy

import (
	"fmt"
	"math"
)

// Paper defaults (§5.1).
const (
	// DefaultMoveCost is c_m, joules consumed per metre travelled.
	DefaultMoveCost = 8.267
	// DefaultCollectCost is c_s, joules consumed per second of data
	// collection.
	DefaultCollectCost = 0.075
	// DefaultDwell is the assumed data-collection time per visit in
	// seconds. The paper never states the dwell explicitly; 1 s keeps
	// the collection energy term (h·c_s of Equ. 4) at the same order
	// of magnitude relative to movement as in the paper.
	DefaultDwell = 1.0
	// DefaultCapacity is the default battery capacity M_Energy in
	// joules. 200 kJ buys a mule roughly 24 km of travel at c_m,
	// i.e. a handful of 800 m-field patrol rounds — enough for the
	// recharge schedule to matter, matching the paper's premise.
	DefaultCapacity = 200_000.0
)

// Model bundles the energy constants of a simulation.
type Model struct {
	// MoveCost is c_m in J/m.
	MoveCost float64
	// CollectCost is c_s in J/s.
	CollectCost float64
	// Dwell is the collection time per visit in seconds.
	Dwell float64
	// Capacity is the battery capacity M_Energy in joules.
	Capacity float64
}

// Default returns the paper's §5.1 parameters.
func Default() Model {
	return Model{
		MoveCost:    DefaultMoveCost,
		CollectCost: DefaultCollectCost,
		Dwell:       DefaultDwell,
		Capacity:    DefaultCapacity,
	}
}

// The products below are each rounded by an explicit conversion, so
// that a caller's sum cannot fuse them into a multiply-add, which
// rounds once and would make the energy bookkeeping depend on the
// architecture.

// MoveEnergy returns the energy to travel dist metres.
func (m Model) MoveEnergy(dist float64) float64 { return float64(m.MoveCost * dist) }

// VisitEnergy returns the energy to collect one target's data
// (c_s × dwell).
func (m Model) VisitEnergy() float64 { return float64(m.CollectCost * m.Dwell) }

// RoundEnergy returns the energy to traverse a patrolling path of the
// given length visiting h targets once each — the denominator of
// Equ. 4: |P̄|·c_m + h·c_s.
func (m Model) RoundEnergy(pathLen float64, visits int) float64 {
	return m.MoveEnergy(pathLen) + float64(float64(visits)*m.VisitEnergy())
}

// Rounds implements Equ. 4: the number of complete patrolling rounds
// r = ⌊M_Energy / (|P̄|·c_m + h·c_s)⌋ a fully charged mule can perform
// before exhausting its battery. The result is at least 1 whenever a
// single round is affordable, and 0 otherwise.
func (m Model) Rounds(pathLen float64, visits int) int {
	per := m.RoundEnergy(pathLen, visits)
	if per <= 0 {
		return math.MaxInt32 // free patrolling: unbounded rounds
	}
	return int(m.Capacity / per)
}

// Battery is a mutable charge store. The zero value is a dead battery
// with zero capacity; use NewBattery.
type Battery struct {
	capacity float64
	level    float64
	dead     bool
}

// NewBattery returns a fully charged battery with the given capacity
// in joules. It panics if capacity <= 0.
func NewBattery(capacity float64) *Battery {
	if capacity <= 0 {
		panic(fmt.Sprintf("energy: NewBattery with capacity %v", capacity))
	}
	return &Battery{capacity: capacity, level: capacity}
}

// Level returns the remaining charge in joules.
func (b *Battery) Level() float64 { return b.level }

// Drain removes j joules. If the charge would go negative the battery
// is emptied, marked dead, and Drain returns false. A dead battery
// stays dead until Recharge: draining it returns false, and it can
// afford nothing. A negative j panics.
func (b *Battery) Drain(j float64) bool {
	if j < 0 {
		panic(fmt.Sprintf("energy: Drain(%v) negative", j))
	}
	if b.dead {
		return false
	}
	if j > b.level {
		b.level = 0
		b.dead = true
		return false
	}
	b.level -= j
	return true
}

// CanAfford reports whether the battery holds at least j joules.
func (b *Battery) CanAfford(j float64) bool {
	return !b.dead && b.level >= j
}

// Recharge restores the battery to full capacity and clears the dead
// flag (RW-TCTP's recharge station visit).
func (b *Battery) Recharge() {
	b.level = b.capacity
	b.dead = false
}
