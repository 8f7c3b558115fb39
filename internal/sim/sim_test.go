package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// run steps e until no event remains or max events have run, and
// returns the number run. The cap stops self-rescheduling handler
// chains, which patrol routes are.
func run(e *Engine, max int) int {
	n := 0
	for n < max && e.Step() {
		n++
	}
	return n
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	run(e, 100)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	run(e, 100)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at float64 = -1
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	run(e, 100)
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	run(e, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	cancel := e.Schedule(1, func() { fired = true })
	cancel.Cancel()
	cancel.Cancel() // double-cancel is a no-op
	n := run(e, 100)
	if fired {
		t.Fatal("canceled event fired")
	}
	if n != 0 {
		t.Fatalf("Run executed %d events", n)
	}
}

func TestCancelAfterFireNoop(t *testing.T) {
	e := New()
	cancel := e.Schedule(1, func() {})
	run(e, 100)
	cancel.Cancel() // must not panic or corrupt state
	if e.pending != 0 {
		t.Fatal("phantom pending events")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want horizon 10", e.Now())
	}
}

func TestRunUntilIncludesBoundary(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(7, func() { fired = true })
	e.RunUntil(7)
	if !fired {
		t.Fatal("event exactly at horizon not executed")
	}
}

func TestRunUntilProcessesSpawnedEvents(t *testing.T) {
	e := New()
	var hits []float64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.After(1, func() { hits = append(hits, e.Now()) }) // at t=2
		e.After(9, func() { hits = append(hits, e.Now()) }) // at t=10, beyond horizon
	})
	e.RunUntil(5)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if e.pending != 1 {
		t.Fatalf("pending = %d", e.pending)
	}
}

func TestRunUntilBackwardPanics(t *testing.T) {
	e := New()
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("backward RunUntil did not panic")
		}
	}()
	e.RunUntil(4)
}

func TestRunMaxEvents(t *testing.T) {
	e := New()
	count := 0
	var loop func()
	loop = func() {
		count++
		e.After(1, loop)
	}
	e.Schedule(0, loop)
	n := run(e, 50)
	if n != 50 || count != 50 {
		t.Fatalf("Run executed %d events, handler ran %d", n, count)
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported next event")
	}
	cancel := e.Schedule(4, func() {})
	e.Schedule(9, func() {})
	if tm, ok := e.NextEventTime(); !ok || tm != 4 {
		t.Fatalf("NextEventTime = %v %v", tm, ok)
	}
	cancel.Cancel()
	if tm, ok := e.NextEventTime(); !ok || tm != 9 {
		t.Fatalf("after cancel NextEventTime = %v %v", tm, ok)
	}
}

func TestPendingSkipsCanceled(t *testing.T) {
	e := New()
	c1 := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	c1.Cancel()
	if got := e.pending; got != 1 {
		t.Fatalf("pending = %d", got)
	}
}

// Pending is maintained as a live counter; it must track every
// Schedule/Cancel/Step transition, including double-cancels, cancels
// after execution, and cancels of already-popped events.
func TestPendingCounterTransitions(t *testing.T) {
	e := New()
	if e.pending != 0 {
		t.Fatalf("fresh pending = %d", e.pending)
	}
	c1 := e.Schedule(1, func() {})
	c2 := e.Schedule(2, func() {})
	e.Schedule(3, func() { e.After(1, func() {}) })
	if e.pending != 3 {
		t.Fatalf("after 3 schedules pending = %d", e.pending)
	}
	c1.Cancel()
	c1.Cancel() // double cancel is a no-op
	if e.pending != 2 {
		t.Fatalf("after cancel pending = %d", e.pending)
	}
	e.Step() // runs the t=2 event
	if e.pending != 1 {
		t.Fatalf("after step pending = %d", e.pending)
	}
	c2.Cancel() // already executed: no-op
	if e.pending != 1 {
		t.Fatalf("after stale cancel pending = %d", e.pending)
	}
	e.Step() // t=3 event schedules a follow-up at t=4
	if e.pending != 1 {
		t.Fatalf("after rescheduling step pending = %d", e.pending)
	}
	e.Step()
	if e.pending != 0 {
		t.Fatalf("drained pending = %d", e.pending)
	}
}

// Property: any batch of events executes in sorted time order
// regardless of insertion order.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var got []float64
		for _, raw := range times {
			at := float64(raw)
			e.Schedule(at, func() { got = append(got, at) })
		}
		run(e, len(times)+1)
		if len(got) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: clock is monotone non-decreasing across any run.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		prev := -1.0
		ok := true
		for _, raw := range times {
			at := float64(raw)
			e.Schedule(at, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		run(e, len(times)+1)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaleCancelDoesNotKillRecycledEvent(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func() {})
	run(e, 10) // fires; the record returns to the pool
	fired := false
	e.Schedule(2, func() { fired = true }) // reuses the pooled record
	stale.Cancel()                         // must not touch the new occupant
	run(e, 10)
	if !fired {
		t.Fatal("stale cancel killed a recycled event")
	}
}

func TestZeroCancelNoop(t *testing.T) {
	var c Cancel
	c.Cancel() // must not panic
}

func TestCompaction(t *testing.T) {
	e := New()
	const n = 1000
	cancels := make([]Cancel, 0, n)
	fired := 0
	for i := 0; i < n; i++ {
		cancels = append(cancels, e.Schedule(float64(i+1), func() { fired++ }))
	}
	for _, c := range cancels[:n-100] {
		c.Cancel()
	}
	// Compaction keeps tombstones at no more than half the heap.
	if live, total := e.pending, len(e.events); total > 2*live {
		t.Fatalf("heap holds %d entries for %d live events", total, live)
	}
	run(e, n+1)
	if fired != 100 {
		t.Fatalf("%d events fired, want 100", fired)
	}
}

// TestRandomizedPopOrderMatchesSort checks the hand-sifted heap
// against its specification: over random schedules with many time
// ties, bulk cancels that force compaction, and handlers that schedule
// and cancel while the engine runs, the events that fire are exactly
// the uncanceled ones, in ascending (time, scheduling order) — the
// (time, seq) total order.
func TestRandomizedPopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	compacted := 0
	for trial := 0; trial < 300; trial++ {
		e := New()
		type rec struct {
			at float64
			id int
		}
		var scheduled, fired []rec
		var cancels []Cancel
		canceled := map[int]bool{}
		done := map[int]bool{}
		cancelRandom := func() {
			j := rng.IntN(len(cancels))
			cancels[j].Cancel()
			if !done[j] {
				canceled[j] = true
			}
		}
		var schedule func(at float64)
		schedule = func(at float64) {
			id := len(scheduled)
			scheduled = append(scheduled, rec{at, id})
			cancels = append(cancels, e.Schedule(at, func() {
				done[id] = true
				fired = append(fired, rec{e.Now(), id})
				if rng.IntN(3) == 0 {
					schedule(e.Now() + float64(rng.IntN(3))) // often a tie with now
				}
				if rng.IntN(3) == 0 {
					cancelRandom()
				}
			}))
		}
		n := 1 + rng.IntN(300)
		for i := 0; i < n; i++ {
			schedule(float64(rng.IntN(20)))
		}
		for i := rng.IntN(n); i > 0; i-- {
			cancelRandom()
		}
		if len(e.events) >= compactMinHeap && len(e.events) < len(scheduled) {
			compacted++
		}
		e.RunUntil(float64(rng.IntN(20)))
		run(e, 1<<20)

		var want []rec
		for _, r := range scheduled {
			if !canceled[r.id] {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].id < want[j].id
		})
		if len(fired) != len(want) {
			t.Fatalf("trial %d: %d events fired, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired as %+v, want %+v", trial, i, fired[i], want[i])
			}
		}
		if e.pending != 0 {
			t.Fatalf("trial %d: %d events pending after the run", trial, e.pending)
		}
	}
	if compacted == 0 {
		t.Fatal("no trial compacted the heap")
	}
}

// TestStepRecyclesWithoutAllocating pins the pooling win: a
// steady-state schedule→fire cycle reuses pooled records and performs
// zero allocations per event.
func TestStepRecyclesWithoutAllocating(t *testing.T) {
	e := New()
	var fn Handler
	fn = func() { e.After(1, fn) }
	e.Schedule(0, fn)
	run(e, 64) // warm the pool and the heap slice
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs > 0 {
		t.Fatalf("%v allocs per schedule→fire cycle, want 0", allocs)
	}
}

// BenchmarkEngine measures the steady-state schedule→fire cycle of a
// patrolling simulation: every fired event schedules its successor,
// exactly like a mule leg. Before event pooling this cost two heap
// allocations per event (the record and the cancel closure); with the
// pool it costs none — compare allocs/op after any engine change.
func BenchmarkEngine(b *testing.B) {
	e := New()
	var fn Handler
	fn = func() { e.After(1, fn) }
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineCancel measures the schedule→cancel→compact path: half
// the scheduled events are canceled, exercising the tombstone
// compaction.
func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	var fn Handler
	fn = func() {
		c := e.After(2, func() {})
		e.After(1, fn)
		c.Cancel()
	}
	e.Schedule(0, fn)
	run(e, 256) // steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestAfterFromMatchesTwoHops pins AfterFrom's contract on random
// schedules with many exact ties: when every chain folds its wait into
// AfterFrom(now+w, d), the events fire in the order that a hop event
// After(w) followed by After(d) gives them, with plain events
// scheduled up front firing at the same instants.
func TestAfterFromMatchesTwoHops(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 500; trial++ {
		type chain struct {
			start, wait, d float64
			plain          bool
		}
		chains := make([]chain, 2+rng.IntN(12))
		for i := range chains {
			chains[i] = chain{float64(rng.IntN(4)), float64(rng.IntN(3)), float64(rng.IntN(3)), rng.IntN(3) == 0}
		}
		run := func(folded bool) []int {
			e := New()
			var order []int
			for i, c := range chains {
				i, c := i, c
				fire := func() { order = append(order, i) }
				switch {
				case c.plain:
					e.Schedule(c.start+c.wait+c.d, fire)
				case folded:
					e.Schedule(c.start, func() { e.AfterFrom(e.Now()+c.wait, c.d, fire) })
				default:
					e.Schedule(c.start, func() { e.After(c.wait, func() { e.After(c.d, fire) }) })
				}
			}
			run(e, 1000)
			return order
		}
		want, got := run(false), run(true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AfterFrom order %v, two-hop order %v", trial, got, want)
			}
		}
	}
}

func TestAfterFromRejectsPastOrNegative(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	run(e, 1)
	for _, c := range []struct{ from, d float64 }{{4, 1}, {6, -1}, {math.NaN(), 1}, {6, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AfterFrom(%v, %v) at now 5 did not panic", c.from, c.d)
				}
			}()
			e.AfterFrom(c.from, c.d, func() {})
		}()
	}
}
