package core

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/lru"
)

// Memo remembers the point-set stage of planning, the part that
// depends on the targets and not on the fleet: the circuits of Circuit
// and W-TCTP's weighted patrolling paths. Plans of the same targets for
// different fleets, as a sweep's fleet axis makes them and as B-TCTP,
// W-TCTP and CHB all build the same hull-insertion circuit, then build
// each once (see MemoPlanner).
//
// A key holds every input of the stage, compared bit for bit: a
// circuit's points in order, its start index, heuristic and 2-opt flag,
// and for a path also every target's weight, the break policy and the
// traversal flag. A RandomBreak path, which draws on a random stream,
// is never remembered. So a remembered result is the one a fresh build
// returns, and every caller gets a copy of its own.
//
// A Memo is safe for concurrent use. A key asked for again while its
// first build runs waits for that build rather than repeating it, and a
// failed build is not remembered (see lru.Cache). It holds at most
// memoBytes of keys and results, dropping the least recently used past
// that, and allocates nothing until its first use. The zero value is
// ready to use; a nil *Memo remembers nothing.
type Memo struct {
	bound sync.Once
	cache lru.Cache[[]int]
	// built counts the builds by key kind: circuits, then paths.
	built [2]atomic.Int64
}

// memoBytes bounds what a Memo holds: keys of 16 bytes per point and
// results of 8 bytes per stop, so about 170 000 points in all.
const memoBytes = 4 << 20

// Memo key kinds.
const (
	circuitKey byte = 'c'
	wppKey     byte = 'w'
)

// putUint64 appends v's little-endian bytes to a key.
func putUint64(key *strings.Builder, v uint64) {
	key.Write(binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v))
}

// putBool appends a flag's byte to a key.
func putBool(key *strings.Builder, f bool) {
	if f {
		key.WriteByte(1)
	} else {
		key.WriteByte(0)
	}
}

// writeCircuitKey writes, with room for extra more bytes, the key of
// the circuit over pts from start: its kind, start, heuristic and flag,
// then the bits of pts in order.
func writeCircuitKey(key *strings.Builder, kind byte, pts []geom.Point, start int, h TourHeuristic, improve bool, extra int) {
	key.Grow(16*len(pts) + 18 + extra)
	key.WriteByte(kind)
	putUint64(key, uint64(start))
	putUint64(key, uint64(h))
	putBool(key, improve)
	for _, p := range pts {
		putUint64(key, math.Float64bits(p.X))
		putUint64(key, math.Float64bits(p.Y))
	}
}

// circuit is the tour kernel circuit through the memo.
func (m *Memo) circuit(pts []geom.Point, start int, h TourHeuristic, improve bool) ([]int, error) {
	if m == nil {
		return circuit(pts, start, h, improve)
	}
	var key strings.Builder
	writeCircuitKey(&key, circuitKey, pts, start, h, improve, 0)
	return m.do(key.String(), func() ([]int, error) {
		return circuit(pts, start, h, improve)
	})
}

// wppKeyOf is the key of wt's weighted patrolling path over every
// target of s, or "" when the path draws on a random stream.
func wppKeyOf(wt *WTCTP, s *field.Scenario) string {
	if wt.Policy == RandomBreak {
		return ""
	}
	var key strings.Builder
	writeCircuitKey(&key, wppKey, s.Points(), s.SinkID, wt.Heuristic, wt.Improve, 9+8*len(s.Targets))
	putUint64(&key, uint64(wt.Policy))
	putBool(&key, wt.DisableAngleRule)
	for _, t := range s.Targets {
		putUint64(&key, uint64(t.Weight))
	}
	return key.String()
}

// do returns a copy of the sequence remembered under key, building it
// with build first unless it is remembered or in flight.
func (m *Memo) do(key string, build func() ([]int, error)) ([]int, error) {
	m.bound.Do(func() {
		m.cache.Budget = memoBytes
		m.cache.Cost = func(key string, seq []int) int64 { return int64(len(key) + 8*len(seq)) }
	})
	seq, _, err := m.cache.Do(key, func() ([]int, error) {
		if key[0] == wppKey {
			m.built[1].Add(1)
		} else {
			m.built[0].Add(1)
		}
		return build()
	})
	return slices.Clone(seq), err
}

// Builds returns how many circuits and how many paths m has built; a
// result that was remembered, or joined while in flight, counts none.
func (m *Memo) Builds() (circuits, paths int) {
	return int(m.built[0].Load()), int(m.built[1].Load())
}

// MemoPlanner is a Planner whose point-set stage can come from a Memo:
// PlanMemo(s, m) returns what Plan(s) returns, bit for bit, building
// its circuits and paths through m (a nil m remembers nothing). A
// planner that embeds a MemoPlanner and plans differently defines its
// own PlanMemo, as CBTCTP, CWTCTP and RWTCTP do, so that the embedded
// one is never promoted in its place.
type MemoPlanner interface {
	Planner
	PlanMemo(s *field.Scenario, m *Memo) (*FleetPlan, error)
}
