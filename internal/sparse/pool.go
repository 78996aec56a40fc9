package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for the parallel sparse kernels. It
// replaces per-call goroutine spawning: the workers are started once and
// then fed work items over a channel, so a hot loop (PCG mat-vecs, gain
// refreshes) pays a channel hand-off instead of a goroutine spawn per call.
//
// A Pool is safe for concurrent use by multiple submitters; work items from
// different Run calls interleave freely. Work functions must not themselves
// call back into the same Pool (all workers could be busy waiting on the
// nested call, deadlocking the pool).
type Pool struct {
	workers int
	procs   bool // Workers follows GOMAXPROCS (NewPool(0), DefaultPool)
	tasks   chan *poolRun
	once    sync.Once
}

// poolRun is the shared state of one Run call: the caller and the workers
// it enlisted claim part indices from the counter until the range is
// exhausted. It is the one allocation a Run makes, whatever the worker count.
type poolRun struct {
	next  atomic.Int64
	parts int64
	f     func(part int)
	wg    sync.WaitGroup
}

// claim runs parts until none is left.
func (r *poolRun) claim() {
	for {
		i := r.next.Add(1) - 1
		if i >= r.parts {
			return
		}
		r.f(int(i))
	}
}

// NewPool starts a pool with the given number of workers. workers <= 0
// starts one per CPU and makes the pool follow GOMAXPROCS: it then runs at
// most GOMAXPROCS parts at a time, also after GOMAXPROCS changed. The
// workers live until Close.
func NewPool(workers int) *Pool {
	procs := workers <= 0
	if procs {
		workers = runtime.NumCPU()
	}
	p := &Pool{workers: workers, procs: procs, tasks: make(chan *poolRun, 4*workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for r := range p.tasks {
				r.claim()
				r.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns how many parts the pool runs side by side: its worker
// count, capped at the current GOMAXPROCS for a pool that follows it. The
// pooled kernels split their work into this many parts.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	if p.procs {
		return min(p.workers, runtime.GOMAXPROCS(0))
	}
	return p.workers
}

// Run invokes f(part) for every part in [0, parts) and blocks until all
// parts complete. The caller claims parts itself, beside up to Workers()−1
// pool workers. With a nil pool, a single worker, or a single part, it runs
// inline on the caller.
func (p *Pool) Run(parts int, f func(part int)) {
	helpers := min(p.Workers(), parts) - 1
	if helpers <= 0 {
		for i := 0; i < parts; i++ {
			f(i)
		}
		return
	}
	r := &poolRun{parts: int64(parts), f: f}
	r.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.tasks <- r
	}
	r.claim()
	r.wg.Wait()
}

// Close shuts the workers down. Run must not be called after Close.
func (p *Pool) Close() { p.once.Do(func() { close(p.tasks) }) }

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// DefaultPool returns the process-wide shared pool, NewPool(0) started on
// first use: a worker per CPU, running as many parts as GOMAXPROCS allows
// at each call, so that a GOMAXPROCS set after it started (go test -cpu
// 1,2,4) still sizes every pooled kernel. The solver engine uses it by default so that any number of concurrent
// estimators (one per subsystem in a DSE run) share one set of compute
// workers instead of each spawning their own.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}
