package protocol

// The lease wire types: how cells travel to a remote worker fleet.
//
// A tctp-server running with remote workers (-workers remote) does not
// compute missing cells itself; it enumerates them, probes the cell
// cache (warm cells are served directly and never reach the queue),
// and hands cold cells out as leases. A worker long-polls
// POST /workers/lease, computes each leased cell through the same
// single-cell sub-job path a local run uses, and posts the bit-exact
// FoldState back as a FoldResult. Because the fold state is the same
// record the checkpoint layer persists, a remotely computed cell
// restores through the shared emission path byte-identically to a
// local computation — the fleet changes throughput, never bytes.
//
// A lease grants a chunk: one or more cells of one sweep in one
// exchange, sized by guided self-scheduling (a share of that sweep's
// queued cells, shrinking as the queue drains; see
// internal/sweep/dispatch). The chunked forms keep the first cell at
// the top level — a CellLease, FoldResult, LeaseHeartbeat or LeaseAck
// of a one-cell chunk has no More — and list the further cells under
// More. The SweepRequest travels once per chunk; each further cell
// carries only its lease ID, cell index and key. A request body that
// still carries the retired "chunk" field decodes unchanged, since
// unknown fields are ignored.
//
// Leases carry deadlines, one per cell. A worker that dies (or stalls
// past its heartbeats) loses its leases: the scheduler expires each
// and requeues its cell for the next worker. Exactly one
// result is ever folded per cell — a result posted under an expired or
// already-completed lease is refused as stale, so a reassigned cell
// that later reports twice still folds once.

// LeaseRequest is the body of POST /workers/lease: a worker asking for
// work to compute.
type LeaseRequest struct {
	// Worker identifies the requesting worker (stable across its
	// leases); required.
	Worker string `json:"worker"`
	// WaitSeconds long-polls: the server holds the request up to this
	// many seconds for work to arrive before answering 204. 0 means
	// answer immediately; servers clamp large values.
	WaitSeconds int `json:"wait_seconds,omitempty"`
}

// CellLease is one cell checked out to one worker: everything the
// worker needs to rebuild the spec, locate the cell, and verify it is
// computing the right thing.
type CellLease struct {
	// ID names this lease; results and heartbeats quote it. A cell
	// reassigned after expiry gets a fresh ID — the old one is stale.
	ID string `json:"id"`
	// Worker is the worker the lease was granted to.
	Worker string `json:"worker"`
	// Sweep is the server-side id of the sweep that enqueued the cell
	// (diagnostic; cells shared by several sweeps carry the first).
	Sweep string `json:"sweep,omitempty"`
	// Cell is the plan-global cell index within the request's plan;
	// Key the cell's content-addressed identity. The worker recomputes
	// the key from the request and refuses a mismatch — a drifted
	// build would otherwise silently compute the wrong cell.
	Cell int    `json:"cell"`
	Key  string `json:"key"`
	// Fingerprint is the plan fingerprint of Request, for the worker's
	// plan memoization and as a second drift guard.
	Fingerprint string `json:"fingerprint"`
	// TTLSeconds is the lease's deadline horizon: the worker must post
	// the result (or a heartbeat) within it, or the cell is reassigned.
	TTLSeconds int `json:"ttl_seconds"`
	// Request is the sweep request whose plan contains the cell —
	// plain data, so the worker builds the identical spec with
	// internal/sweep/build.
	Request SweepRequest `json:"request"`
	// More lists the chunk's further cells, in the order the worker
	// should compute them. They share Worker, Sweep, Fingerprint,
	// TTLSeconds and Request with the top-level cell; each has its own
	// lease and deadline.
	More []ChunkCell `json:"more,omitempty"`
}

// ChunkCell is one further cell of a chunked CellLease.
type ChunkCell struct {
	ID   string `json:"id"`
	Cell int    `json:"cell"`
	Key  string `json:"key"`
}

// FoldResult is the body of POST /workers/result: the computed fold
// state of a leased cell, or the error that prevented it.
type FoldResult struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker,omitempty"`
	// Key echoes the leased cell's key; a mismatch is refused.
	Key string `json:"key"`
	// State is the cell's complete, bit-exact fold state; nil when the
	// worker failed, with Error saying why.
	State *FoldState `json:"state,omitempty"`
	Error string     `json:"error,omitempty"`
	// More carries further results posted in the same exchange, each
	// under its own lease; the server acks them in LeaseAck.More. A
	// result inside More may not carry a More of its own.
	More []FoldResult `json:"more,omitempty"`
}

// LeaseHeartbeat is the body of POST /workers/heartbeat: a worker
// still computing a long cell extends its lease deadline.
type LeaseHeartbeat struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker,omitempty"`
	// More names further leases to extend in the same exchange; the
	// server acks them in LeaseAck.More.
	More []string `json:"more,omitempty"`
}

// LeaseAck answers a result or heartbeat post.
type LeaseAck struct {
	// Accepted reports whether the post took effect. A stale post
	// (unknown, expired, or already-completed lease) has Stale set —
	// the worker should drop the cell and move on; its result was not
	// folded.
	Accepted bool   `json:"accepted"`
	Stale    bool   `json:"stale,omitempty"`
	Error    string `json:"error,omitempty"`
	// More acks a chunked post's further entries, one per entry of its
	// More, in order. The HTTP status of the post speaks for the
	// top-level entry only.
	More []LeaseAck `json:"more,omitempty"`
}

// SourceWorker is the Source attributed to a cell computed by a remote
// worker: "worker:" + the worker's id.
func SourceWorker(id string) Source { return Source("worker:" + id) }
