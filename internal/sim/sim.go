// Package sim is a deterministic discrete-event simulation engine.
// Events are handlers scheduled at absolute times and executed in
// non-decreasing time order; events at identical times run in FIFO
// scheduling order, which makes every simulation in this repository
// fully reproducible.
//
// The engine computes mule trajectories analytically (arrival times
// are distance/velocity), so there is no time-stepping error: B-TCTP's
// "standard deviation always keeps zero" claim (paper Fig. 8) can be
// verified to floating-point precision.
//
// The engine is the clock of every mule whose events another part of
// the simulation can observe, not of every mule. A mule that shares no
// target with any other, in a run with no observers, no event schedule
// and no batteries, runs its legs back to back on its own clock
// (mule.RunUntil, chosen by patrol.Run) and schedules nothing here:
// the events the engine orders are the ones whose order matters.
//
// The pending events sit in a typed binary heap ordered by
// (time, seq), sifted by hand rather than through container/heap so
// that no schedule or fire goes through an interface call. Event records are pooled: a fired or canceled event
// returns to a free list and its next Schedule reuses it, so the
// engine itself allocates nothing in the steady-state schedule→fire
// cycle (see BenchmarkEngine). Whether a whole simulation is
// allocation-free then rests on its handlers: a handler value built
// per event (a closure capturing per-event state, or a method value
// such as m.advance taken at each call) allocates on every Schedule.
// The mule package binds its handlers once per mule for this reason.
//
// Ties at one instant are broken by (from, seq): the instant an event
// counts as scheduled at, then call order. For Schedule and After,
// from is now, so this is plain FIFO. AfterFrom lets a caller schedule
// an event as though from a later instant; a mule uses it to spend one
// event per leg, scheduling its next arrival at the moment it arrives
// with the dwell and any hold folded in.
// Cancellation is lazy: a canceled event stays in the heap until it
// surfaces and is popped.
package sim

import (
	"fmt"
	"math"
)

// Handler is the body of a scheduled event.
type Handler func()

type event struct {
	time float64
	// from is the instant the event counts as scheduled at: now for
	// Schedule and After, a later instant for AfterFrom. It breaks
	// time ties ahead of seq.
	from     float64
	seq      uint64 // insertion order; breaks remaining ties FIFO
	fn       Handler
	canceled bool
	// gen counts the record's reuses; a Cancel handle is valid only
	// for the generation it was issued for, so recycling a record
	// invalidates stale handles.
	gen uint64
}

// eventHeap is a binary min-heap of events ordered by
// (time, from, seq). seq is unique, so this is a total order: the pop
// order is fully determined by the contents, not by the heap's shape.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap order.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum event; the heap must be
// non-empty.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.down(0)
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Engine is a discrete-event simulator. The zero value is ready to
// use at time 0.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	free   []*event // recycled event records
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Reset drops every pending event and sets the clock back to 0, as New
// leaves it, keeping the heap's array and the event records for the
// next run. Cancel handles issued before the reset become no-ops.
func (e *Engine) Reset() {
	for i, ev := range e.events {
		e.recycle(ev)
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now, e.seq = 0, 0
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Cancel is a handle revoking a scheduled event. It is returned by
// Schedule, is safe to call more than once or after the event has
// fired (a no-op), and stays safe after the engine has recycled the
// event record for a later Schedule. The zero Cancel is a no-op.
type Cancel struct {
	ev  *event
	gen uint64
}

// Cancel revokes the event if it has not fired yet.
func (c Cancel) Cancel() {
	if c.ev != nil && c.ev.gen == c.gen {
		c.ev.canceled = true
	}
}

// alloc takes an event record from the free list, or allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped record to the free list, invalidating any
// outstanding Cancel handles for it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule runs fn at absolute time at. Scheduling in the past (or a
// NaN time) panics: it always indicates a model bug.
func (e *Engine) Schedule(at float64, fn Handler) Cancel {
	if math.IsNaN(at) || at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	return e.schedule(at, e.now, fn)
}

func (e *Engine) schedule(at, from float64, fn Handler) Cancel {
	ev := e.alloc()
	ev.time, ev.from, ev.seq, ev.fn, ev.canceled = at, from, e.seq, fn, false
	e.seq++
	e.events.push(ev)
	return Cancel{ev: ev, gen: ev.gen}
}

// After runs fn d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn Handler) Cancel {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) negative", d))
	}
	return e.Schedule(e.now+d, fn)
}

// AfterFrom runs fn d seconds after the instant from, which must not
// precede now. Among events at the same time it sorts as though
// scheduled at instant from: behind those scheduled at an earlier
// instant, ahead of those scheduled at a later one, and by call order
// among those also scheduled at from. One event can then stand for a
// wait followed by a move: a mule schedules its next arrival the
// moment it arrives rather than a departure event that schedules the
// arrival. When every such pair is folded this way, events fire in the
// order the separate wait events gave them (TestAfterFromMatchesTwoHops);
// a wait event still scheduled the old way at the same instant can
// sort differently. The fire time is the same float expression,
// from + d.
func (e *Engine) AfterFrom(from, d float64, fn Handler) Cancel {
	if math.IsNaN(from) || from < e.now || !(d >= 0) {
		panic(fmt.Sprintf("sim: AfterFrom(%v, %v) at now %v", from, d, e.now))
	}
	return e.schedule(from+d, from, fn)
}

// Step executes the next pending event, advancing the clock to its
// time. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.time
		fn := ev.fn
		e.recycle(ev) // before fn: the handler's own Schedule can reuse it
		fn()
		return true
	}
	return false
}

// RunUntil executes every event scheduled at or before t, then sets
// the clock to t. Events scheduled during execution are processed too
// if they fall within the horizon. It panics if t is before now.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.events) > 0 {
		next := e.peek()
		if next == nil || next.time > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// peek returns the next non-canceled event without removing it, or
// nil.
func (e *Engine) peek() *event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if !ev.canceled {
			return ev
		}
		e.events.pop()
		e.recycle(ev)
	}
	return nil
}

// NextEventTime returns the time of the next pending event and true,
// or 0 and false when the queue is empty.
func (e *Engine) NextEventTime() (float64, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.time, true
}
