// Command tctp-server runs the sweep service: a long-lived HTTP/JSON
// daemon that executes tctp-sweep requests through a shared
// content-addressed cell cache (internal/sweep/cache, served by
// internal/sweep/server). Submitting the same — or an overlapping —
// sweep twice costs one simulation; results are byte-identical to a
// local `tctp-sweep` run of the same flags.
//
// Usage:
//
//	tctp-server -addr :8080
//	tctp-server -addr :8080 -cache-dir /var/cache/tctp -cache-bytes 1073741824
//	tctp-server -addr :8080 -cache-dir /var/cache/tctp -cache-dir-bytes 10737418240
//	tctp-server -addr :8080 -gate 8 -max-sweeps 4
//	tctp-server -addr :8080 -workers remote -lease-ttl 30s
//	tctp-server -addr :8080 -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
//
//	# then, from any client machine:
//	tctp-sweep -alg btctp -preset paper51 -seeds 5 -server http://host:8080 > sweep.csv
//	curl -s http://host:8080/stats
//
//	# and, with -workers remote, from each compute machine:
//	tctp-worker -server http://host:8080
//
// Endpoints: POST /sweeps, GET /sweeps/{id}, GET /sweeps/{id}/events
// (NDJSON), GET /sweeps/{id}/result.csv, GET /sweeps/{id}/result.jsonl,
// GET /stats, and — with -workers remote — POST /workers/lease,
// /workers/result, /workers/heartbeat for the tctp-worker fleet. See
// internal/sweep/server for semantics — admission control (429 +
// Retry-After beyond -max-sweeps), the -gate compute bound shared by
// all sweeps, single-flight dedup of concurrent identical submissions,
// and internal/sweep/dispatch for the cache-aware lease scheduler.
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof CPU and
// allocation profiles, and -trace FILE a runtime/trace execution trace,
// of the server's whole life (see internal/profile) when it shuts down
// on SIGINT or SIGTERM; what it serves is the same with and without
// them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tctp/internal/profile"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheDir      = flag.String("cache-dir", "", "directory for the persistent cell-cache layer (empty = memory only)")
		cacheBytes    = flag.Int64("cache-bytes", cache.DefaultMaxBytes, "in-memory cell-cache budget in bytes")
		cacheDirBytes = flag.Int64("cache-dir-bytes", 0, "disk cell-cache budget in bytes; oldest entries are evicted past it (0 = unbounded)")
		gate          = flag.Int("gate", runtime.GOMAXPROCS(0), "max cell simulations running at once across all sweeps")
		maxSweeps     = flag.Int("max-sweeps", 8, "max sweeps in flight before POST /sweeps answers 429")
		workers       = flag.String("workers", "local", "where cells compute: local (in-process) or remote (leased to a tctp-worker fleet)")
		leaseTTL      = flag.Duration("lease-ttl", 30*time.Second, "remote-worker lease deadline; an unreported cell is reassigned past it")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the server to this file at shutdown")
		memProf       = flag.String("memprofile", "", "write an allocation profile (runtime/pprof) of the server to this file at shutdown")
		traceF        = flag.String("trace", "", "write an execution trace (runtime/trace) of the server to this file at shutdown")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	stopProfile, err := profile.Start(*cpuProf, *memProf, *traceF)
	if err != nil {
		log.Fatalln("tctp-server:", err)
	}

	store, err := cache.New(cache.Options{
		MaxBytes:    *cacheBytes,
		Dir:         *cacheDir,
		DirMaxBytes: *cacheDirBytes,
		Gate:        *gate,
	})
	if err != nil {
		log.Fatalln("tctp-server:", err)
	}
	cfg := server.Config{
		Store:     store,
		MaxSweeps: *maxSweeps,
	}
	switch *workers {
	case "local":
	case "remote":
		cfg.Dispatch, err = dispatch.New(dispatch.Options{Store: store, LeaseTTL: *leaseTTL})
		if err != nil {
			log.Fatalln("tctp-server:", err)
		}
	default:
		log.Fatalf("tctp-server: -workers %q: want local or remote", *workers)
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalln("tctp-server:", err)
	}
	persistence := "memory-only cache"
	if *cacheDir != "" {
		persistence = fmt.Sprintf("cache dir %s", *cacheDir)
		if *cacheDirBytes > 0 {
			persistence += fmt.Sprintf(" (≤ %d bytes)", *cacheDirBytes)
		}
	}
	compute := "local compute"
	if cfg.Dispatch != nil {
		compute = fmt.Sprintf("remote workers, %s leases", *leaseTTL)
	}
	hs := &http.Server{Addr: *addr, Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	log.Printf("tctp-server: listening on %s (%s, %d-byte budget, gate %d, max %d sweeps, %s)",
		*addr, persistence, *cacheBytes, *gate, *maxSweeps, compute)
	select {
	case err = <-served:
	case <-ctx.Done():
		err = hs.Close()
	}
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatalln("tctp-server:", err)
	}
	log.Printf("tctp-server: shut down")
}
