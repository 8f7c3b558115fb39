// Command tctp-worker is one member of a remote compute fleet: a
// long-lived process that pulls cell leases from a tctp-server running
// with -workers remote, computes each cell through the engine's
// single-cell sub-job path, and posts the bit-exact fold state back.
//
// Usage:
//
//	tctp-worker -server http://host:8080
//	tctp-worker -server http://host:8080 -id rack3-a -concurrency 2
//	tctp-worker -server http://host:8080 -cpuprofile cpu.pprof -memprofile mem.pprof
//	tctp-worker -server http://host:8080 -trace trace.out
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof CPU and
// allocation profiles, and -trace FILE a runtime/trace execution trace,
// of the worker's whole life (see internal/profile) when it shuts down
// on SIGINT or SIGTERM; the fold states it posts are the same with and
// without them.
//
// Workers are stateless and interchangeable: attach as many as the
// sweep load needs, kill them freely — a cell lost with its worker is
// reassigned by the server when the lease expires, and the sweep's
// output bytes are identical at any fleet size. See the README's
// "Worker fleet" section for the lease lifecycle.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"tctp/internal/profile"
	"tctp/internal/sweep/worker"
)

func main() {
	var (
		server      = flag.String("server", "", "tctp-server base URL (required), e.g. http://host:8080")
		id          = flag.String("id", "", "worker id reported to the scheduler (default <hostname>-<pid>)")
		concurrency = flag.Int("concurrency", 1, "cells computed at once (each cell already parallelizes its replications)")
		poll        = flag.Duration("poll", 15*time.Second, "lease long-poll horizon")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the worker to this file at shutdown")
		memProf     = flag.String("memprofile", "", "write an allocation profile (runtime/pprof) of the worker to this file at shutdown")
		traceF      = flag.String("trace", "", "write an execution trace (runtime/trace) of the worker to this file at shutdown")
	)
	flag.Parse()
	if *server == "" {
		log.Fatalln("tctp-worker: -server is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	stopProfile, err := profile.Start(*cpuProf, *memProf, *traceF)
	if err != nil {
		log.Fatalln("tctp-worker:", err)
	}
	log.Printf("tctp-worker: pulling leases from %s (concurrency %d)", *server, *concurrency)
	err = worker.Run(ctx, worker.Options{
		Server:      *server,
		ID:          *id,
		Concurrency: *concurrency,
		Poll:        *poll,
		Logf:        log.Printf,
	})
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatalln("tctp-worker:", err)
	}
	log.Printf("tctp-worker: shut down")
}
