package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// phaseSpin is how long a phase helper keeps polling for the next phase
// after its last one before it parks, and how long a phase's caller polls
// for the subsystems others claimed before it blocks. A parked goroutine
// takes about 75 µs to start running once woken on a 2-vCPU guest, as long
// as a whole 9-solve IEEE-118 phase, and the phases of a tracked frame
// follow each other closely enough for a helper that polls to catch the
// next one. 50 µs came out of a sweep of 10, 20, 50 and 100 µs (DESIGN §8).
const phaseSpin = 50 * time.Microsecond

// phases runs every in-process phase (inProcess.forEach). Its helpers live
// as long as the process, like the runtime's own workers: they are started
// on first need, one per extra P, and then spin briefly or park.
var phases phaseRunner

// phaseRunner runs one phase at a time on its caller plus up to
// GOMAXPROCS−1 persistent helpers, all claiming task indices from one
// counter (the shared-counter scheduling of the paper's reference [2]). The
// caller works from the start, so a phase never waits for a wake-up to
// begin, and it waits only for tasks that were claimed.
type phaseRunner struct {
	// mu is held by the phase the helpers serve. A phase that finds it held
	// (another goroutine's phase, or a task starting a phase of its own)
	// runs on its caller alone.
	mu sync.Mutex
	// job is the phase being served, nil between phases.
	job atomic.Pointer[phaseJob]
	// helpers grows to the largest GOMAXPROCS−1 a phase has needed; guarded
	// by mu.
	helpers []*phaseHelper
	// gen numbers the phases published, from 1; guarded by mu.
	gen uint64
}

// phaseHelper is one persistent helper's parking state.
type phaseHelper struct {
	id int
	// parked is set by the helper before it blocks on wake, and cleared by
	// whoever then owes it a token: a publishing phase that clears it sends
	// one, the helper clearing it itself sends none.
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one token per park
}

// phaseJob is one phase: tasks 0..n-1, claimed through next.
type phaseJob struct {
	// gen is the phase's number. A helper remembers the last phase it saw by
	// number, not by pointer, so a finished phase — its task closure, its
	// context and what they hold — is not kept alive by a parked helper.
	gen    uint64
	ctx    context.Context
	cancel context.CancelFunc
	task   func(ctx context.Context, i int) error
	n      int
	// helpers is how many helpers (ids 0..helpers-1) take part.
	helpers int
	next    atomic.Int64 // the next index to claim
	left    atomic.Int64 // tasks not yet finished or skipped
	// done is closed when left reaches zero; nil when no helper takes part.
	done chan struct{}
	errs []error // by task index; each slot written by its claimant only
}

// run runs task(ctx, i) for i in 0..n-1 and returns when every one has
// returned or been skipped. The first error cancels the context handed to
// the others, and tasks not yet claimed then never start (fail-fast);
// errors are joined in index order. A nil return means every task ran: a
// phase whose context the parent canceled before all of it completed says
// so, even when no task noticed.
func (r *phaseRunner) run(ctx context.Context, phase string, n int, task func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &phaseJob{ctx: ctx, cancel: cancel, task: task, n: n, errs: make([]error, n)}
	j.left.Store(int64(n))
	if h := min(runtime.GOMAXPROCS(0), n) - 1; h > 0 && r.mu.TryLock() {
		j.helpers, j.done = h, make(chan struct{})
		r.publish(j)
		j.work()
		j.wait()
		r.job.Store(nil) // drop the phase; no helper can claim from it now, and none keeps it
		r.mu.Unlock()
	} else {
		j.work()
	}
	if err := errors.Join(j.errs...); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: canceled before all of it completed: %w", phase, err)
	}
	return nil
}

// publish starts the helpers j needs that do not exist yet, makes j the
// job, and wakes every parked helper that takes part. The caller holds mu.
//
// No wake-up is lost. A helper parks by setting its flag and then
// re-reading the job; it blocks only if no phase newer than the last it saw
// is published. publish stores the job and then clears each flag it finds
// set, sending a token for each. The atomics are sequentially consistent, so
// if the helper's re-read missed this job, its flag store came before the
// job store and so before publish's clear: publish finds the flag set and
// sends the token the helper is about to wait for. If the re-read did see
// the job, the helper clears its own flag and goes to work; if publish
// cleared it first, the helper takes the token it was sent before going on,
// so no token is left over for a later park.
func (r *phaseRunner) publish(j *phaseJob) {
	for len(r.helpers) < j.helpers {
		h := &phaseHelper{id: len(r.helpers), wake: make(chan struct{}, 1)}
		r.helpers = append(r.helpers, h)
		go r.help(h)
	}
	r.gen++
	j.gen = r.gen
	r.job.Store(j)
	for _, h := range r.helpers[:j.helpers] {
		if h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// help is a helper's life: take part in every phase published for it, and
// between phases poll for phaseSpin, yielding the P each time round so the
// collector and other goroutines keep it, then park until woken.
func (r *phaseRunner) help(h *phaseHelper) {
	var seen uint64 // the number of the last phase this helper saw
	fresh := func() *phaseJob {
		if j := r.job.Load(); j != nil && j.gen != seen {
			return j
		}
		return nil
	}
	idle := time.Now()
	for {
		if j := fresh(); j != nil {
			seen = j.gen
			if h.id < j.helpers {
				j.work()
				idle = time.Now()
			}
			continue
		}
		if time.Since(idle) < phaseSpin {
			runtime.Gosched()
			continue
		}
		h.parked.Store(true)
		if fresh() == nil || !h.parked.CompareAndSwap(true, false) {
			<-h.wake
		}
	}
}

// work claims tasks until none is left. A task claimed after the phase
// context was canceled is skipped.
func (j *phaseJob) work() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.n {
			return
		}
		if j.ctx.Err() == nil {
			if j.errs[i] = j.task(j.ctx, i); j.errs[i] != nil {
				j.cancel()
			}
		}
		if j.left.Add(-1) == 0 && j.done != nil {
			close(j.done)
		}
	}
}

// wait returns once every claimed task has finished, polling for phaseSpin
// before it blocks: a helper's last task is usually a few microseconds from
// done, and a blocked caller would pay a wake-up for it.
func (j *phaseJob) wait() {
	for start := time.Now(); j.left.Load() > 0; runtime.Gosched() {
		if time.Since(start) >= phaseSpin {
			<-j.done
			return
		}
	}
}
