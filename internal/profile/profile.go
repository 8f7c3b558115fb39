// Package profile implements the opt-in -cpuprofile, -memprofile and
// -trace flags of tctp-sweep, tctp-experiments and tctp-worker with
// runtime/pprof and runtime/trace. The profiles and the trace go to
// their own files and never into a program's output, so a profiled run
// writes the same bytes as an unprofiled one.
//
// Read them with the standard tools:
//
//	go tool pprof -top cpu.pprof
//	go tool pprof -top -sample_index=alloc_space mem.pprof
//	go tool trace trace.out
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start creates every non-empty path first, so that a bad path fails
// before any work is done, then begins a CPU profile written to
// cpuPath and an execution trace written to tracePath. The returned
// stop must be called once, after the work to be profiled: it ends the
// CPU profile and the trace and writes to memPath the allocation
// profile of everything the program has allocated since it started.
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpu, mem, tr *os.File
	closeAll := func() {
		for _, f := range []*os.File{cpu, mem, tr} {
			if f != nil {
				f.Close()
			}
		}
	}
	create := func(path, what string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		return f, nil
	}
	if mem, err = create(memPath, "memory profile"); err == nil {
		if tr, err = create(tracePath, "trace"); err == nil {
			cpu, err = create(cpuPath, "cpu profile")
		}
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if tr != nil {
		if err := trace.Start(tr); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
			}
			closeAll()
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return func() error {
		var errs []error
		if tr != nil {
			trace.Stop()
			if err := tr.Close(); err != nil {
				errs = append(errs, fmt.Errorf("trace: %w", err))
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC() // bring the profile's statistics up to date
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
