// Package profile implements the opt-in -cpuprofile and -memprofile
// flags of tctp-sweep and tctp-experiments with runtime/pprof. The
// profiles go to their own files and never into a program's output,
// so a profiled run writes the same bytes as an unprofiled one.
//
// Read them with the standard tool:
//
//	go tool pprof -top cpu.pprof
//	go tool pprof -top -sample_index=alloc_space mem.pprof
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when cpuPath is
// non-empty, and creates memPath, when it is non-empty, so that a bad
// path fails before any work is done. The returned stop must be called
// once, after the work to be profiled: it ends the CPU profile and
// writes to memPath the allocation profile of everything the program
// has allocated since it started.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memory profile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
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
