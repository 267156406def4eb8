// Package profiling wires the standard pprof/trace hooks behind the
// -cpuprofile/-memprofile/-trace flags of `lightnet bench` (every
// kind), so one invocation yields both the measured report and the
// profile of exactly the measured path:
//
//	go tool pprof -top cpu.pprof
//	go tool trace trace.out
package profiling

import (
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins a CPU profile and an execution trace at the given paths
// (empty paths are skipped) and returns a stop function that finishes
// them and writes the heap-allocation profile to memPath (after a final
// GC, so it reports live retention rather than garbage). Stop must be
// called exactly once; it is safe to call when nothing was requested.
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			cleanup()
			return nil, err
		}
		traceF = f
	}
	return func() error {
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil {
				return err
			}
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			return pprof.WriteHeapProfile(f)
		}
		return nil
	}, nil
}
