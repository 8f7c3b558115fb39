// Package server implements the sweep service: an HTTP/JSON front end
// that accepts transport-neutral sweep requests (protocol.SweepRequest),
// plans them with the same builder the CLI uses, and executes them
// through a shared content-addressed cell cache. Overlapping sweeps
// share cells, repeated sweeps cost no simulation at all, and N
// concurrent submissions of the same sweep collapse to one computation
// (single-flight) — while every result stays byte-identical to a local
// `tctp-sweep` run of the same flags.
//
// Endpoints:
//
//	POST /sweeps                 submit a SweepRequest; 202 + SubmitResponse,
//	                             or 429 + Retry-After when at capacity
//	GET  /sweeps/{id}            SweepStatus
//	GET  /sweeps/{id}/events     NDJSON event stream: one "cell" event per
//	                             resolved cell (with its source: computed /
//	                             hit / joined), then "done" or "error"
//	GET  /sweeps/{id}/result.csv    the sweep's CSV, blocking until done
//	GET  /sweeps/{id}/result.jsonl  the sweep's JSONL, blocking until done
//	GET  /stats                  cache, admission, and scheduler counters
//
// A sweep renders its CSV as its cells resolve, since every client
// fetches it. Nothing else is encoded until asked for: a finished sweep
// keeps its CSV bytes and its sweep.Result, GET result.jsonl replays
// that result through the JSONL sink (sweep.ReplayJSONL), and a cell
// event keeps its cell's result and is encoded when /events streams
// it. Both stay byte-identical to what a JSONL sink on the run would
// have written: an event's result is that cell's result.jsonl line.
//
// With a dispatch scheduler attached (Config.Dispatch; tctp-server
// -workers remote), the server stops computing cells in-process and
// instead serves a worker fleet over three more endpoints:
//
//	POST /workers/lease          long-poll for a chunk of leases, one
//	                             CellLease (204 = no work)
//	POST /workers/result         post leased cells' FoldStates; stale
//	                             leases answer 409, invalid states 422
//	POST /workers/heartbeat      extend leases mid-computation
//
// Scheduling stays cache-aware — every cell is probed against the
// shared store before it can enter the lease queue, so warm cells are
// never dispatched — and results stay byte-identical to local runs at
// any fleet size (see internal/sweep/dispatch).
//
// Backpressure is two-layered: admission (at most MaxSweeps sweeps in
// flight; beyond that POST /sweeps returns 429 with Retry-After) and
// the cache's compute gate (cache.Options.Gate), which bounds how many
// cell simulations run at once across all admitted sweeps — cache
// hits and single-flight joins bypass the gate entirely, so a warm
// server stays responsive even at its compute limit. A sweep holds its
// admission slot only while it runs: capacity is released the moment
// the sweep finishes, never held until its result is fetched.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
)

// Config configures a Server.
type Config struct {
	// Store is the shared cell cache (required). Its Gate option is
	// the server's compute-concurrency bound.
	Store *cache.Store
	// Dispatch, when non-nil, switches the server to remote compute:
	// missing cells are leased to the worker fleet through this
	// scheduler instead of simulated in-process. The scheduler must
	// share Store (its probe is what keeps warm cells out of the
	// queue).
	Dispatch *dispatch.Scheduler
	// MaxSweeps bounds concurrently executing sweeps; submissions
	// beyond it receive 429 + Retry-After. Default 8. Negative means
	// zero (every submission rejected — useful only in tests).
	MaxSweeps int
	// RetryAfter is the Retry-After hint (seconds) on 429 responses;
	// default 2.
	RetryAfter int
}

// Stats is the GET /stats document: the shared cache's counters plus
// the admission counters, and — when a worker fleet is attached — the
// dispatch scheduler's.
type Stats struct {
	Cache cache.Stats `json:"cache"`
	// Submitted counts accepted sweeps, Rejected 429s, Active the
	// sweeps executing right now, Done and Failed the finished ones.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Active    int   `json:"active"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	// Scheduler is the remote plane's counters (queued/leased/expired/
	// reassigned/remote-computed and per-worker rows); absent when the
	// server computes locally.
	Scheduler *dispatch.Stats `json:"scheduler,omitempty"`
}

// sweepRun is the server-side state of one submitted sweep.
type sweepRun struct {
	id  string
	fp  string
	req protocol.SweepRequest // normalized request, what leases carry

	// name, seeds and baseSeed are what the JSONL header records.
	name     string
	seeds    int
	baseSeed uint64

	mu       sync.Mutex
	state    string // "running", "done", "failed"
	events   []event
	notify   chan struct{} // closed and replaced on every append
	cells    int
	done     int
	hits     int
	computed int
	joined   int
	remote   int
	csv      []byte
	res      *sweep.Result // the finished sweep's cells, for result.jsonl
	errMsg   string
	finished chan struct{}
}

// event is one recorded event of a sweep. A cell event keeps its
// cell's result, which handleEvents encodes into the event's Result
// only when it streams it.
type event struct {
	protocol.Event
	result *sweep.CellResult
}

// Server is the sweep service. It implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu        sync.Mutex
	sweeps    map[string]*sweepRun
	nextID    int
	active    int
	submitted int64
	rejected  int64
	doneN     int
	failedN   int
}

// New builds a Server around a shared cell cache.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.MaxSweeps == 0 {
		cfg.MaxSweeps = 8
	}
	if cfg.MaxSweeps < 0 {
		cfg.MaxSweeps = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		sweeps: make(map[string]*sweepRun),
	}
	s.mux.HandleFunc("POST /sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /sweeps/{id}/result.csv", s.handleResult)
	s.mux.HandleFunc("GET /sweeps/{id}/result.jsonl", s.handleResult)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /workers/lease", s.handleLease)
	s.mux.HandleFunc("POST /workers/result", s.handleWorkerResult)
	s.mux.HandleFunc("POST /workers/heartbeat", s.handleHeartbeat)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit admits, plans, and launches a sweep.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req protocol.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	// Execution-side knobs are the server's to choose, not the
	// client's: a request cannot oversubscribe the shared machine.
	req.Workers = 0
	spec, err := build.Spec(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}

	s.mu.Lock()
	if s.active >= s.cfg.MaxSweeps {
		s.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
		httpError(w, http.StatusTooManyRequests,
			"sweep capacity reached (%d in flight); retry after %ds",
			s.cfg.MaxSweeps, s.cfg.RetryAfter)
		return
	}
	s.active++
	s.submitted++
	s.nextID++
	sr := &sweepRun{
		id:       fmt.Sprintf("s%d", s.nextID),
		fp:       job.Fingerprint(),
		req:      req,
		name:     spec.Name,
		seeds:    spec.Seeds,
		baseSeed: spec.BaseSeed,
		state:    "running",
		cells:    job.Cells(),
		notify:   make(chan struct{}),
		finished: make(chan struct{}),
	}
	s.sweeps[sr.id] = sr
	s.mu.Unlock()

	skipped := job.TotalCells() - job.Cells()
	go s.execute(sr, job)

	writeJSON(w, http.StatusAccepted, protocol.SubmitResponse{
		ID: sr.id, Fingerprint: sr.fp, Cells: sr.cells, Skipped: skipped,
	})
}

// execute runs the sweep — through the shared cache in-process, or
// through the dispatch scheduler's worker fleet — and records its
// events and final artifacts.
func (s *Server) execute(sr *sweepRun, job *sweep.Job) {
	var csvBuf bytes.Buffer
	opts := sweep.CacheRunOpts{
		Store:  s.cfg.Store,
		Sinks:  []sweep.Sink{sweep.CSV(&csvBuf)},
		OnCell: sr.cell,
	}
	if s.cfg.Dispatch != nil {
		// Remote plane: each cell is probed against the shared cache and,
		// on a miss, leased to the worker fleet. The engine's central
		// validation still re-checks whatever comes back.
		opts.Resolve = func(ctx context.Context, rc sweep.ResolveCell) (protocol.FoldState, protocol.Source, error) {
			return s.cfg.Dispatch.Resolve(ctx, dispatch.Cell{
				Sweep:       sr.id,
				Index:       rc.Index,
				Key:         rc.Key,
				Fingerprint: sr.fp,
				Request:     sr.req,
				Validate:    rc.Validate,
			})
		}
	}
	res, err := job.RunCached(context.Background(), opts)

	// Release the admission slot before the sweep becomes observably
	// finished: a client that sees "done" (or receives the result) and
	// immediately submits again must never bounce off capacity this
	// sweep was still holding.
	s.mu.Lock()
	s.active--
	if err != nil {
		s.failedN++
	} else {
		s.doneN++
	}
	s.mu.Unlock()

	sr.mu.Lock()
	if err != nil {
		sr.state = "failed"
		sr.errMsg = err.Error()
		sr.append(event{Event: protocol.Event{Type: "error", Error: sr.errMsg}})
	} else {
		sr.state = "done"
		sr.csv = csvBuf.Bytes()
		sr.res = res
		sr.append(event{Event: protocol.Event{Type: "done", Cells: sr.done, Runs: res.Runs}})
	}
	sr.mu.Unlock()
	close(sr.finished)
}

// cell records one resolved cell as an event (called concurrently by
// the cached run).
func (sr *sweepRun) cell(u sweep.CellUpdate) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.done++
	switch {
	case u.Source == protocol.SourceHit:
		sr.hits++
	case u.Source == protocol.SourceJoined:
		sr.joined++
	case strings.HasPrefix(string(u.Source), "worker:"):
		sr.remote++
	default:
		sr.computed++
	}
	sr.append(event{
		Event:  protocol.Event{Type: "cell", Cell: u.Index, Key: u.Key, Source: u.Source},
		result: u.Result,
	})
}

// append records an event and wakes the streamers. Caller holds sr.mu.
func (sr *sweepRun) append(ev event) {
	sr.events = append(sr.events, ev)
	close(sr.notify)
	sr.notify = make(chan struct{})
}

func (sr *sweepRun) status() protocol.SweepStatus {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return protocol.SweepStatus{
		ID: sr.id, State: sr.state, Fingerprint: sr.fp,
		Cells: sr.cells, CellsDone: sr.done,
		Hits: sr.hits, Computed: sr.computed, Joined: sr.joined,
		Remote: sr.remote,
		Error:  sr.errMsg,
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweepRun {
	id := r.PathValue("id")
	s.mu.Lock()
	sr := s.sweeps[id]
	s.mu.Unlock()
	if sr == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
	}
	return sr
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sr := s.lookup(w, r); sr != nil {
		writeJSON(w, http.StatusOK, sr.status())
	}
}

// handleEvents streams the sweep's events as NDJSON: everything
// recorded so far, then live until the terminal event. A cell event's
// result is encoded here, as the JSONL sink would encode the cell.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sr := s.lookup(w, r)
	if sr == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		sr.mu.Lock()
		batch := sr.events[next:]
		next = len(sr.events)
		terminal := sr.state != "running"
		notify := sr.notify
		sr.mu.Unlock()
		for _, ev := range batch {
			if ev.result != nil {
				// A result JSON cannot encode goes out without one.
				ev.Result, _ = json.Marshal(ev.result)
			}
			if err := enc.Encode(ev.Event); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves the finished sweep's CSV or JSONL, blocking
// until the sweep completes; the JSONL is rendered from the kept
// result on each request. A failed sweep answers 409 with its error.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sr := s.lookup(w, r)
	if sr == nil {
		return
	}
	select {
	case <-sr.finished:
	case <-r.Context().Done():
		return
	}
	sr.mu.Lock()
	failed, errMsg := sr.state == "failed", sr.errMsg
	body, res := sr.csv, sr.res
	sr.mu.Unlock()
	if failed {
		httpError(w, http.StatusConflict, "sweep %s failed: %s", sr.id, errMsg)
		return
	}
	ctype := "text/csv"
	if strings.HasSuffix(r.URL.Path, ".jsonl") {
		var buf bytes.Buffer
		if err := sweep.ReplayJSONL(&buf, sr.name, sr.seeds, sr.baseSeed, res); err != nil {
			httpError(w, http.StatusInternalServerError, "sweep %s: %v", sr.id, err)
			return
		}
		body, ctype = buf.Bytes(), "application/x-ndjson"
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := Stats{
		Submitted: s.submitted, Rejected: s.rejected,
		Active: s.active, Done: s.doneN, Failed: s.failedN,
	}
	s.mu.Unlock()
	st.Cache = s.cfg.Store.Stats()
	if s.cfg.Dispatch != nil {
		sched := s.cfg.Dispatch.Stats()
		st.Scheduler = &sched
	}
	writeJSON(w, http.StatusOK, st)
}

// requireDispatch answers the worker endpoints on a local-compute
// server: there is no scheduler to talk to.
func (s *Server) requireDispatch(w http.ResponseWriter) bool {
	if s.cfg.Dispatch == nil {
		httpError(w, http.StatusConflict, "this server computes locally (-workers local); no leases to serve")
		return false
	}
	return true
}

// handleLease long-polls the scheduler for a chunk of cell leases.
// 204 means the poll elapsed with no work.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if !s.requireDispatch(w) {
		return
	}
	var req protocol.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request needs a worker id")
		return
	}
	wait := req.WaitSeconds
	if wait < 0 {
		wait = 0
	}
	if wait > 30 {
		wait = 30
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(wait)*time.Second)
	defer cancel()
	granted, err := s.cfg.Dispatch.Lease(ctx, req.Worker)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "lease: %v", err)
		return
	}
	if granted == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, granted)
}

// handleWorkerResult accepts leased cells' fold states: one, or a
// chunk's under FoldResult.More. Stale leases (expired, reassigned,
// already completed) answer 409; states the scheduler refuses answer
// 422 — in both cases with the LeaseAck body, so workers act on the
// ack rather than the status line. The status speaks for the
// top-level result; the ack's More carries the others'.
func (s *Server) handleWorkerResult(w http.ResponseWriter, r *http.Request) {
	if !s.requireDispatch(w) {
		return
	}
	var res protocol.FoldResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&res); err != nil {
		httpError(w, http.StatusBadRequest, "bad fold result: %v", err)
		return
	}
	ack := s.cfg.Dispatch.Complete(res)
	switch {
	case ack.Stale:
		writeJSON(w, http.StatusConflict, ack)
	case !ack.Accepted:
		writeJSON(w, http.StatusUnprocessableEntity, ack)
	default:
		writeJSON(w, http.StatusOK, ack)
	}
}

// handleHeartbeat extends a live lease; stale leases answer 409 so the
// worker abandons the cell.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireDispatch(w) {
		return
	}
	var hb protocol.LeaseHeartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
		httpError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	ack := s.cfg.Dispatch.Heartbeat(hb)
	if ack.Stale {
		writeJSON(w, http.StatusConflict, ack)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}
