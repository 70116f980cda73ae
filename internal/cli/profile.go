// Package cli holds what the checkin-sim and checkin-bench commands share
// beyond the library itself: the flags that pick the simulated stack, and
// the -cpuprofile/-memprofile flags and the profiles they write.
package cli

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the -cpuprofile and -memprofile flag values.
type Profiles struct {
	cpu, mem *string
}

// ProfileFlags registers -cpuprofile and -memprofile on the default flag
// set; call it before flag.Parse.
func ProfileFlags() Profiles {
	return Profiles{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that writes the heap profile and then stops the CPU profile:
// main defers it (`defer prof.Start(fatal)()`). Errors go to fatal, which
// must not return.
func (p Profiles) Start(fatal func(error)) (stop func()) {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
	}
}
