// Package prof is the commands' pprof hook: one -cpuprofile flag, handled
// the same way by every command that has it.
package prof

import (
	"fmt"
	"log"
	"os"
	"runtime/pprof"
)

// StartCPU starts a CPU profile written to path and returns the function
// that ends it, which main defers: the profile is complete once the command
// returns normally (a log.Fatal exit leaves it truncated). An empty path
// profiles nothing.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() // nothing was written; the start error is the one to report
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			log.Printf("cpuprofile: %v", err)
		}
	}, nil
}
