// Package lru is the program's one bounded memo: values under string
// keys, held while their summed cost stays within a budget, the least
// recently used dropped past it. A value asked for while it is being
// built is built once: later callers join the build in flight.
package lru

import "sync"

// Source says how Do came by its value: this caller built it, it was
// held, or another caller's build in flight was joined.
type Source int

const (
	Built Source = iota
	Hit
	Joined
)

// Cache is a concurrency-safe LRU of V under string keys. Set Budget
// and Cost before first use; the map is allocated on the first entry.
// The newest entry is never evicted, so a value costing more than the
// whole budget is still held, alone. A failed build is not remembered:
// its error goes to the callers that joined it.
type Cache[V any] struct {
	Budget int64                       // the most held entries may cost
	Cost   func(key string, v V) int64 // nil costs every entry 1

	mu    sync.Mutex
	m     map[string]*entry[V]
	ring  entry[V] // sentinel: next is the most recently used
	stats Stats
}

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	Hits, Joins, Evictions int64
	Entries                int   // held, builds in flight not counted
	Held                   int64 // the entries' summed cost
}

// entry is a held value, or a build in flight (next == nil) whose
// callers wait for done.
type entry[V any] struct {
	key        string
	v          V
	err        error
	cost       int64
	done       chan struct{}
	prev, next *entry[V]
}

// Do returns the value held under key, or joins its build in flight,
// or builds it with build and holds it unless build fails.
func (c *Cache[V]) Do(key string, build func() (V, error)) (V, Source, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok && e.next != nil {
		defer c.mu.Unlock()
		return c.use(e), Hit, nil
	} else if ok {
		c.stats.Joins++
		c.mu.Unlock()
		<-e.done
		return e.v, Joined, e.err
	}
	e := c.put(&entry[V]{key: key, done: make(chan struct{})})
	c.mu.Unlock()

	v, err := build()
	if err == nil {
		e.cost = c.cost(key, v)
	}
	c.mu.Lock()
	if e.v, e.err = v, err; err != nil {
		delete(c.m, key)
	} else {
		c.hold(e)
	}
	c.mu.Unlock()
	close(e.done)
	return v, Built, err
}

// Get returns the value held under key. It never joins a build.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil && e.next != nil {
		return c.use(e), true
	}
	return v, false
}

// Add holds v under key unless key is held or being built already.
func (c *Cache[V]) Add(key string, v V) {
	e := &entry[V]{key: key, v: v, cost: c.cost(key, v)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok {
		c.hold(c.put(e))
	}
}

// Stats returns a snapshot of c's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache[V]) cost(key string, v V) int64 {
	if c.Cost == nil {
		return 1
	}
	return c.Cost(key, v)
}

// put, use, link and hold run with mu held. put enters e in the map.
func (c *Cache[V]) put(e *entry[V]) *entry[V] {
	if c.m == nil {
		c.m = make(map[string]*entry[V])
		c.ring.prev, c.ring.next = &c.ring, &c.ring
	}
	c.m[e.key] = e
	return e
}

// use counts a hit on a held e and moves it to the front.
func (c *Cache[V]) use(e *entry[V]) V {
	c.stats.Hits++
	e.prev.next, e.next.prev = e.next, e.prev
	c.link(e)
	return e.v
}

// link links e at the front, as the most recently used.
func (c *Cache[V]) link(e *entry[V]) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}

// hold links a new e, counts it, and evicts from the back, never e
// itself, until the budget holds.
func (c *Cache[V]) hold(e *entry[V]) {
	c.link(e)
	c.stats.Entries++
	c.stats.Held += e.cost
	for c.stats.Held > c.Budget && c.ring.prev != e {
		old := c.ring.prev
		old.prev.next, c.ring.prev = &c.ring, old.prev
		delete(c.m, old.key)
		c.stats.Entries--
		c.stats.Held -= old.cost
		c.stats.Evictions++
	}
}
