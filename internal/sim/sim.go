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
// Cancellation is lazy — a canceled event stays in the heap until
// popped — but when canceled entries outnumber live ones the heap is
// compacted in place.
package sim

import (
	"fmt"
	"math"
)

// Handler is the body of a scheduled event.
type Handler func()

type event struct {
	time     float64
	seq      uint64 // insertion order; breaks time ties FIFO
	fn       Handler
	canceled bool
	// gen counts the record's reuses; a Cancel handle is valid only
	// for the generation it was issued for, so recycling a record
	// invalidates stale handles.
	gen uint64
}

// eventHeap is a binary min-heap of events ordered by (time, seq).
// seq is unique, so this is a total order: the pop order is fully
// determined by the contents, not by the heap's shape.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
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

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
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

// compactMinHeap is the heap size below which lazy-deleted entries are
// never compacted — popping a handful of tombstones is cheaper than a
// rebuild.
const compactMinHeap = 64

// Engine is a discrete-event simulator. The zero value is ready to
// use at time 0.
type Engine struct {
	now      float64
	seq      uint64
	events   eventHeap
	executed uint64
	pending  int      // live count of scheduled, non-canceled events
	free     []*event // recycled event records
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled (non-canceled) events. The
// count is maintained live on Schedule/Cancel/Step, so the call is
// O(1).
func (e *Engine) Pending() int { return e.pending }

// Executed returns how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Cancel is a handle revoking a scheduled event. It is returned by
// Schedule, is safe to call more than once or after the event has
// fired (a no-op), and stays safe after the engine has recycled the
// event record for a later Schedule. The zero Cancel is a no-op.
type Cancel struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel revokes the event if it has not fired yet.
func (c Cancel) Cancel() {
	ev := c.ev
	if ev == nil || ev.gen != c.gen || ev.canceled {
		return
	}
	ev.canceled = true
	c.e.pending--
	c.e.maybeCompact()
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

// maybeCompact rebuilds the heap once lazily-deleted canceled entries
// outnumber the live ones (and the heap is big enough to care).
func (e *Engine) maybeCompact() {
	if len(e.events) >= compactMinHeap && len(e.events)-e.pending > len(e.events)/2 {
		kept := e.events[:0]
		for _, ev := range e.events {
			if ev.canceled {
				e.recycle(ev)
			} else {
				kept = append(kept, ev)
			}
		}
		for i := len(kept); i < len(e.events); i++ {
			e.events[i] = nil
		}
		e.events = kept
		e.events.init()
	}
}

// Schedule runs fn at absolute time at. Scheduling in the past (or a
// NaN time) panics: it always indicates a model bug.
func (e *Engine) Schedule(at float64, fn Handler) Cancel {
	if math.IsNaN(at) || at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.time, ev.seq, ev.fn, ev.canceled = at, e.seq, fn, false
	e.seq++
	e.events.push(ev)
	e.pending++
	return Cancel{e: e, ev: ev, gen: ev.gen}
}

// After runs fn d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn Handler) Cancel {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) negative", d))
	}
	return e.Schedule(e.now+d, fn)
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
		e.executed++
		e.pending--
		ev.canceled = true // fired: make a late Cancel a no-op
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

// Run executes events until none remain or until maxEvents events have
// run (a safety valve against accidental infinite event loops —
// patrolling routes are cyclic and schedule forever). It returns the
// number of events executed by this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	var n uint64
	for n < maxEvents && e.Step() {
		n++
	}
	return n
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
