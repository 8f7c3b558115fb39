package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitJoins waits until c has counted n joins.
func waitJoins[V any](t *testing.T, c *Cache[V], n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Joins < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d joins, want %d", c.Stats().Joins, n)
		}
	}
}

// TestDoSingleFlight: callers asking for one key while it is built
// join that one build and share its value.
func TestDoSingleFlight(t *testing.T) {
	c := &Cache[int]{Budget: 10}
	release := make(chan struct{})
	var builds atomic.Int32
	const n = 8
	srcs := make([]Source, n)
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, src, err := c.Do("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("caller %d got %d, %v", i, v, err)
			}
			srcs[i] = src
		}()
	}
	waitJoins(t, c, n-1)
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds, want 1", builds.Load())
	}
	count := map[Source]int{}
	for _, s := range srcs {
		count[s]++
	}
	if count[Built] != 1 || count[Joined] != n-1 {
		t.Fatalf("sources %v", srcs)
	}
	if v, src, _ := c.Do("k", nil); v != 42 || src != Hit {
		t.Fatalf("after the build: %d, %v", v, src)
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Joins: n - 1, Entries: 1, Held: 1}) {
		t.Fatalf("stats %+v", st)
	}
}

// TestDoForgetsFailures: a failed build's error goes to its joiners and
// is not remembered, so the next caller builds again.
func TestDoForgetsFailures(t *testing.T) {
	c := &Cache[int]{Budget: 10}
	boom := errors.New("boom")
	release, started := make(chan struct{}), make(chan struct{})
	go func() {
		_, _, err := c.Do("k", func() (int, error) { close(started); <-release; return 0, boom })
		if err != boom {
			t.Errorf("builder got %v", err)
		}
	}()
	<-started
	joined := make(chan error)
	go func() {
		_, src, err := c.Do("k", func() (int, error) { return 0, errors.New("second build") })
		if src != Joined {
			err = fmt.Errorf("source %v", src)
		}
		joined <- err
	}()
	waitJoins(t, c, 1)
	close(release)
	if err := <-joined; err != boom {
		t.Fatalf("joiner got %v", err)
	}
	v, src, err := c.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || src != Built || err != nil {
		t.Fatalf("after a failure: %d, %v, %v", v, src, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Held != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBudgetEvictsLeastRecentlyUsed: past its budget a cache drops its
// least recently used entries, whichever way they were used, and never
// its newest, however much that costs.
func TestBudgetEvictsLeastRecentlyUsed(t *testing.T) {
	c := &Cache[int]{Budget: 10, Cost: func(_ string, v int) int64 { return int64(v) }}
	build := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	c.Do("a", build(3))
	c.Add("b", 3)
	c.Do("c", build(3))
	c.Get("a")          // a is now the most recently used
	c.Do("b", nil)      // then b
	c.Do("d", build(3)) // 12 > 10: c goes
	if _, ok := c.Get("c"); ok {
		t.Fatal("the least recently used entry was kept")
	}
	for _, k := range []string{"a", "b", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
	if st := c.Stats(); st.Entries != 3 || st.Held != 9 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	c.Add("huge", 50) // the newest stays, alone
	if v, ok := c.Get("huge"); !ok || v != 50 {
		t.Fatal("the newest entry was evicted")
	}
	if st := c.Stats(); st.Entries != 1 || st.Held != 50 || st.Evictions != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestGetNeverJoins: Get misses a key being built, and Add leaves both
// a build in flight and a held entry as they are.
func TestGetNeverJoins(t *testing.T) {
	c := &Cache[int]{Budget: 10}
	release, started := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.Do("k", func() (int, error) { close(started); <-release; return 1, nil })
		done <- v
	}()
	<-started
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned a build in flight")
	}
	c.Add("k", 2)
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("builder got %d", v)
	}
	c.Add("k", 3)
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("held %d, %v; want the build's 1", v, ok)
	}
	if st := c.Stats(); st.Joins != 0 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}
