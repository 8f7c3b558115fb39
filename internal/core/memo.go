package core

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"tctp/internal/field"
	"tctp/internal/geom"
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
// first build runs waits for that build rather than repeating it. It
// holds at most memoBytes of keys and results, dropping the least
// recently used past that, and allocates nothing until its first use.
// The zero value is ready to use; a nil *Memo remembers nothing.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	// lru is the sentinel of the ring of finished entries, most
	// recently used first; held counts their bytes.
	lru  memoEntry
	held int
	// built counts the builds by key kind: circuits, then paths.
	built [2]int
}

// memoBytes bounds what a Memo holds: keys of 16 bytes per point and
// results of 8 bytes per stop, so about 170 000 points in all.
const memoBytes = 4 << 20

// memoEntry is one remembered result, or a build in flight until done
// is closed.
type memoEntry struct {
	key        string
	seq        []int
	err        error
	done       chan struct{}
	prev, next *memoEntry
}

// Memo key kinds.
const (
	circuitKey byte = 'c'
	wppKey     byte = 'w'
)

// appendPoints appends the bits of pts, in order, to a key.
func appendPoints(key []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(p.X))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(p.Y))
	}
	return key
}

// circuitKeyOf is the key of the circuit over pts from start.
func circuitKeyOf(kind byte, pts []geom.Point, start int, h TourHeuristic, improve bool) []byte {
	key := make([]byte, 0, 16*len(pts)+32)
	key = append(key, kind)
	key = binary.LittleEndian.AppendUint64(key, uint64(start))
	key = binary.LittleEndian.AppendUint64(key, uint64(h))
	if improve {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	return appendPoints(key, pts)
}

// circuit is the tour kernel circuit through the memo.
func (m *Memo) circuit(pts []geom.Point, start int, h TourHeuristic, improve bool) ([]int, error) {
	if m == nil {
		return circuit(pts, start, h, improve)
	}
	return m.do(circuitKeyOf(circuitKey, pts, start, h, improve), func() ([]int, error) {
		return circuit(pts, start, h, improve)
	})
}

// wppKeyOf is the key of wt's weighted patrolling path over every
// target of s, or nil when the path draws on a random stream.
func wppKeyOf(wt *WTCTP, s *field.Scenario) []byte {
	if wt.Policy == RandomBreak {
		return nil
	}
	key := circuitKeyOf(wppKey, s.Points(), s.SinkID, wt.Heuristic, wt.Improve)
	key = binary.LittleEndian.AppendUint64(key, uint64(wt.Policy))
	if wt.DisableAngleRule {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	for _, t := range s.Targets {
		key = binary.LittleEndian.AppendUint64(key, uint64(t.Weight))
	}
	return key
}

// do returns a copy of the sequence remembered under key, building it
// with build first unless it is remembered or in flight. A failed build
// is not remembered: its error goes to the callers that waited on it.
func (m *Memo) do(key []byte, build func() ([]int, error)) ([]int, error) {
	m.mu.Lock()
	e, ok := m.entries[string(key)]
	if ok {
		if e.prev != nil { // finished: move it to the front
			m.unlink(e)
			m.pushFront(e)
		}
		m.mu.Unlock()
		<-e.done
		return slices.Clone(e.seq), e.err
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
		m.lru.prev, m.lru.next = &m.lru, &m.lru
	}
	e = &memoEntry{key: string(key), done: make(chan struct{})}
	m.entries[e.key] = e
	if key[0] == wppKey {
		m.built[1]++
	} else {
		m.built[0]++
	}
	m.mu.Unlock()

	e.seq, e.err = build()

	m.mu.Lock()
	if e.err != nil {
		delete(m.entries, e.key)
	} else {
		m.pushFront(e)
		m.held += len(e.key) + 8*len(e.seq)
		for m.held > memoBytes && m.lru.prev != e {
			old := m.lru.prev
			m.unlink(old)
			delete(m.entries, old.key)
			m.held -= len(old.key) + 8*len(old.seq)
		}
	}
	m.mu.Unlock()
	close(e.done)
	return slices.Clone(e.seq), e.err
}

// Builds returns how many circuits and how many paths m has built; a
// result that was remembered, or joined while in flight, counts none.
func (m *Memo) Builds() (circuits, paths int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.built[0], m.built[1]
}

// pushFront links e at the front of the ring.
func (m *Memo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the ring.
func (m *Memo) unlink(e *memoEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
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
