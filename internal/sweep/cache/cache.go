// Package cache is a content-addressed store for sweep cell fold
// states: the piece that turns the sweep engine's per-cell keys
// (sweep.Job.CellKey) into reuse across runs, across overlapping
// sweeps, and across concurrent submissions.
//
// Store layers three mechanisms behind the one-method
// sweep.CellStore contract:
//
//   - An in-memory LRU bounded by a byte budget (an lru.Cache, the
//     bounded memo the planner's and the worker's memos share), so a
//     long-lived process (tctp-server) keeps its hottest cells
//     resident without growing without bound.
//
//   - An optional disk layer: every computed state is also written
//     under its key in a directory, atomically (temp file + rename),
//     and read back on a memory miss — warm results survive restarts.
//     A disk entry whose payload does not round-trip, or whose
//     embedded key does not match its file name, is refused and the
//     cell recomputed: a corrupt cache may cost time, never
//     correctness. An optional byte budget (Options.DirMaxBytes)
//     bounds the directory with an oldest-first sweep, on open and
//     after writes, so a long-lived server's disk layer stops growing
//     without bound.
//
//   - Single-flight deduplication, by the same lru.Cache: concurrent
//     Folds of the same key elect one leader to run the compute; the
//     others wait and share its result (or its error). N identical
//     sweeps submitted at once cost one computation, not N.
//
// Because the stored value is the cell's bit-exact fold state — the
// same record the checkpoint layer persists — a sweep served from
// this cache emits output byte-identical to a cold run; that
// guarantee is pinned by this package's tests.
package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tctp/internal/lru"
	"tctp/internal/sweep/protocol"
)

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the in-memory layer (approximately: the summed
	// JSON size of the resident states). 0 means DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the disk layer in that directory
	// (created if absent).
	Dir string
	// DirMaxBytes, when > 0, bounds the disk layer: whenever the
	// summed size of the cached entries exceeds it, the oldest files
	// (by modification time) are deleted until the budget holds again.
	// The sweep runs on open — so a restarted server trims a directory
	// that grew under a previous, larger budget — and after any write
	// that pushes the total over. 0 means unbounded, the historical
	// behavior.
	DirMaxBytes int64
	// Gate, when > 0, bounds how many computes run at once across all
	// Folds of this store. Hits, disk hits, and single-flight joins
	// are never gated — only the leaders actually simulating. This is
	// the server's backpressure point: many concurrent sweeps share
	// one compute pool instead of oversubscribing the machine.
	Gate int
}

// DefaultMaxBytes is the in-memory budget when Options.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits served from memory; DiskHits served from the disk layer
	// (and promoted to memory).
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	// Misses counts Folds that ran the compute.
	Misses int64 `json:"misses"`
	// Joins counts Folds that waited on another caller's in-flight
	// compute of the same key.
	Joins int64 `json:"joins"`
	// Evictions counts entries dropped to keep memory under budget;
	// DiskEvictions counts files deleted to keep the disk layer under
	// Options.DirMaxBytes.
	Evictions     int64 `json:"evictions"`
	DiskEvictions int64 `json:"disk_evictions"`
	// Corrupt counts disk entries refused (unreadable, malformed, or
	// key-mismatched); each refusal forces a recompute.
	Corrupt int64 `json:"corrupt"`
	// DiskErrors counts failed disk writes (non-fatal: the state is
	// still served and kept in memory).
	DiskErrors int64 `json:"disk_errors"`
	// InFlight is the number of computes running right now; Entries
	// and Bytes describe the current memory layer.
	InFlight int   `json:"in_flight"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Store is a concurrency-safe, content-addressed cell cache
// implementing sweep.CellStore. Callers must treat returned states as
// immutable — they are shared across every Fold of the same key.
type Store struct {
	dir         string
	dirMaxBytes int64
	gate        chan struct{}

	// gcMu serializes disk sweeps; only one scan-and-delete runs at a
	// time even when many leaders finish writes together.
	gcMu sync.Mutex

	// mem is the memory layer, costing each state its JSON size.
	mem lru.Cache[*protocol.FoldState]

	mu        sync.Mutex
	diskBytes int64 // approximate; corrected by every sweep's rescan
	stats     Stats // the disk layer's and the computes' counters
}

// New opens a store. The disk directory, when configured, is created
// if needed.
func New(opts Options) (*Store, error) {
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("cache: negative MaxBytes %d", opts.MaxBytes)
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	if opts.DirMaxBytes < 0 {
		return nil, fmt.Errorf("cache: negative DirMaxBytes %d", opts.DirMaxBytes)
	}
	s := &Store{
		dir:         opts.Dir,
		dirMaxBytes: opts.DirMaxBytes,
		mem:         lru.Cache[*protocol.FoldState]{Budget: opts.MaxBytes, Cost: stateSize},
	}
	if opts.Gate > 0 {
		s.gate = make(chan struct{}, opts.Gate)
	}
	// Trim a directory inherited from a run with a larger (or no)
	// budget before serving from it.
	s.gcDisk()
	return s, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	mem := s.mem.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Hits, st.Joins, st.Evictions = mem.Hits, mem.Joins, mem.Evictions
	st.Entries, st.Bytes, st.MaxBytes = mem.Entries, mem.Held, s.mem.Budget
	return st
}

// Fold implements sweep.CellStore: return the state stored under key,
// computing (and storing) it on a miss. Concurrent Folds of one key
// run compute once; the waiters share the leader's state or error.
// Errors are never cached — the next Fold of the key retries.
func (s *Store) Fold(key string, compute func() (protocol.FoldState, error)) (protocol.FoldState, protocol.Source, error) {
	if !protocol.ValidKey(key) {
		return protocol.FoldState{}, "", fmt.Errorf("cache: malformed cell key %q", key)
	}

	src := protocol.SourceComputed
	st, how, err := s.mem.Do(key, func() (*protocol.FoldState, error) {
		if st := s.readDisk(key); st != nil {
			src = protocol.SourceHit
			return st, nil
		}
		if s.gate != nil {
			s.gate <- struct{}{}
			defer func() { <-s.gate }()
		}
		s.mu.Lock()
		s.stats.Misses++
		s.stats.InFlight++
		s.mu.Unlock()
		st, err := compute()
		s.mu.Lock()
		s.stats.InFlight--
		s.mu.Unlock()
		return &st, err
	})
	switch how {
	case lru.Hit:
		src = protocol.SourceHit
	case lru.Joined:
		src = protocol.SourceJoined
	}
	if err != nil {
		return protocol.FoldState{}, src, err
	}
	if how == lru.Built && src == protocol.SourceComputed {
		s.writeDisk(key, st)
	}
	return *st, src, nil
}

// Probe returns the state cached under key, if any, without computing,
// joining an in-flight computation, or registering a single-flight.
// Memory hits refresh the LRU; disk hits are promoted to memory. This
// is the dispatch scheduler's cache-aware admission check: a warm cell
// is served here and never enters the lease queue.
func (s *Store) Probe(key string) (protocol.FoldState, bool) {
	if !protocol.ValidKey(key) {
		return protocol.FoldState{}, false
	}
	if st, ok := s.mem.Get(key); ok {
		return *st, true
	}
	if st := s.readDisk(key); st != nil {
		s.mem.Add(key, st)
		return *st, true
	}
	return protocol.FoldState{}, false
}

// Put publishes a state under its key to both layers — how remotely
// computed cells (validated by the scheduler before this call) enter
// the cache. A malformed key is dropped; the disk layer, as always,
// accelerates rather than gates.
func (s *Store) Put(key string, st protocol.FoldState) {
	if !protocol.ValidKey(key) {
		return
	}
	s.mem.Add(key, &st)
	s.writeDisk(key, &st)
}

// stateSize approximates a state's memory footprint by its JSON
// encoding — the same bytes the disk layer stores.
func stateSize(_ string, st *protocol.FoldState) int64 {
	b, err := json.Marshal(st)
	if err != nil {
		// Cannot happen for a FoldState; be conservative if it does.
		return 1 << 10
	}
	return int64(len(b))
}

// diskEntry is one cached cell on disk. The key is embedded so a
// renamed, truncated, or cross-copied file cannot impersonate another
// cell.
type diskEntry struct {
	Key   string             `json:"key"`
	State protocol.FoldState `json:"state"`
}

// diskPath maps a key to its file. Keys are validated hex, so the
// trimmed key is a safe file name.
func (s *Store) diskPath(key string) string {
	return filepath.Join(s.dir, strings.TrimPrefix(key, "sha256:")+".json")
}

// readDisk loads a key from the disk layer, counting a disk hit. Any
// defect — unreadable file, malformed JSON, embedded key not matching
// — refuses the entry (counting it corrupt) rather than serving it.
func (s *Store) readDisk(key string) *protocol.FoldState {
	if s.dir == "" {
		return nil
	}
	b, err := os.ReadFile(s.diskPath(key))
	if os.IsNotExist(err) {
		return nil
	}
	var de diskEntry
	if err == nil {
		err = json.Unmarshal(b, &de)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || de.Key != key {
		s.stats.Corrupt++
		return nil
	}
	s.stats.DiskHits++
	return &de.State
}

// writeDisk persists a computed state, atomically: a unique temp file
// in the same directory, then rename. Failures are counted and
// swallowed — the disk layer accelerates, it does not gate.
func (s *Store) writeDisk(key string, st *protocol.FoldState) {
	if s.dir == "" {
		return
	}
	err := func() error {
		b, err := json.Marshal(diskEntry{Key: key, State: *st})
		if err != nil {
			return err
		}
		tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), s.diskPath(key)); err != nil {
			return err
		}
		s.mu.Lock()
		s.diskBytes += int64(len(b))
		over := s.dirMaxBytes > 0 && s.diskBytes > s.dirMaxBytes
		s.mu.Unlock()
		if over {
			s.gcDisk()
		}
		return nil
	}()
	if err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
	}
}

// gcDisk enforces Options.DirMaxBytes: rescan the disk layer and
// delete entries oldest-first (by modification time, ties broken by
// name for determinism) until the budget holds. The newest entry is
// never deleted, mirroring the memory layer — a single state larger
// than the whole budget still persists (alone). The rescan also
// corrects the approximate byte counter that write-time checks use,
// so files deleted behind the store's back only delay a sweep, never
// break it.
func (s *Store) gcDisk() {
	if s.dir == "" || s.dirMaxBytes <= 0 {
		return
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()

	ents, err := os.ReadDir(s.dir)
	if err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
		return
	}
	type file struct {
		name string
		size int64
		mod  int64
	}
	var files []file
	var total int64
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue // leave temp files to their writers
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent delete
		}
		files = append(files, file{de.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	var evicted int64
	for i := 0; i < len(files)-1 && total > s.dirMaxBytes; i++ {
		if err := os.Remove(filepath.Join(s.dir, files[i].name)); err != nil {
			continue
		}
		total -= files[i].size
		evicted++
	}
	s.mu.Lock()
	s.diskBytes = total
	s.stats.DiskEvictions += evicted
	s.mu.Unlock()
}
