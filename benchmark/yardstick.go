package main

import (
	"runtime"
	"sync"
	"time"
)

// The sandbox this benchmark gates on is a two-vCPU guest on a shared host.
// A neighbour slows whole runs by 30-60 %, for minutes at a time, both by
// slowing execution and by delaying the wake-up of an idle vCPU, and no
// statistic of the operation times alone — median, lower quartile, minimum —
// repeated within 25 % over ten runs (README, "Steadiness"). The yardstick is
// a fixed piece of work shaped like the program's own (fork-join over more
// goroutines than processors, each streaming through a cache-resident
// buffer) that slows down with the machine. Times are reported calibrated:
// multiplied by yardNominalMS over the yardstick's median around the same
// round.
//
// The yardstick must move with the machine and not with the program, or a
// change that slows it would hide its own regression. It therefore never
// runs between operations: it is sampled in bursts before and after a round,
// with the program at rest — no operation in flight, and a garbage
// collection just completed, so that none of the program's garbage is being
// collected while it runs.

// yardNominalMS only sets the scale of calibrated times: the yardstick's
// median on the two-core sandbox while the host was quiet, so that a
// calibrated time reads as that machine's quiet time. Every comparison of
// two calibrated times is a ratio, in which it cancels.
const yardNominalMS = 0.18

const (
	yardWorkers = 9
	yardBurstN  = 20 // samples per burst, about 4 ms
)

// Package-level state and argument-free goroutine functions, so that a
// sample allocates nothing and starts no collection of its own.
var (
	yardBufs  [yardWorkers][4096]float64
	yardSinks [yardWorkers]float64
	yardWG    sync.WaitGroup
	yardFuncs [yardWorkers]func()
)

func init() {
	for g := range yardFuncs {
		yardFuncs[g] = func() { yardWorker(g) }
	}
}

func yardWorker(g int) {
	defer yardWG.Done()
	b := yardBufs[g][:]
	s := 0.0
	for i := range b {
		b[i] = float64(i+g) * 1.000001
	}
	for r := 0; r < 4; r++ {
		for i := range b {
			s += b[i] * b[(i*7)&4095]
		}
	}
	yardSinks[g] += s
}

// yardstick runs the fixed work once and returns its wall time in
// milliseconds.
func yardstick() float64 {
	t0 := time.Now()
	for phase := 0; phase < 2; phase++ {
		yardWG.Add(yardWorkers)
		for g := 0; g < yardWorkers; g++ {
			go yardFuncs[g]()
		}
		yardWG.Wait()
	}
	return ms(time.Since(t0))
}

// yardBurst brings the program to rest and takes one burst of samples. The
// caller must have no operation in flight.
func yardBurst() []float64 {
	runtime.GC()
	xs := make([]float64, yardBurstN)
	for i := range xs {
		xs[i] = yardstick()
	}
	return xs
}
