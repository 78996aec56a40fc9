package contingency

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/powerflow"
)

// Scheduling names how N-1 cases are distributed over workers. There is one
// scheme, CounterScheduling.
type Scheduling int

// CounterScheduling is counter-based dynamic load balancing, the scheme the
// paper's HPC state-estimation code [2] grew out of (PNNL's massive
// contingency analysis, Chen, Huang, Chavarría-Miranda 2010): workers grab
// the next case from a shared atomic counter as they finish,
// self-balancing.
const CounterScheduling Scheduling = 0

// ParallelOptions configures a parallel screen.
type ParallelOptions struct {
	Options
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// Scheduling is accepted and ignored: every sweep runs under
	// CounterScheduling. It exists only because benchmark/workload.go still
	// sets it.
	Scheduling Scheduling
}

// schedule fans cases 0..nCases-1 out across workers, each drawing the next
// case from a shared counter as it finishes one, running `run` at most once
// per case. It implements the deterministic error contract shared by every
// sweep entry point:
//
//   - Cancellation is checked before each case; a canceled context wins
//     over case errors and is returned wrapped.
//   - Otherwise, if any case failed, the returned error is the one for the
//     lowest-numbered failing case, whatever the worker count. Workers
//     skip cases above the lowest failure seen so far (their results are
//     discarded anyway), but every case below it still runs, so the
//     winning error is deterministic whenever the per-case failures are.
//
// The counter hands each worker an ascending sequence of case indices,
// which is what lets a worker stop drawing cases (rather than merely skip)
// once it reaches the failure watermark.
func schedule(ctx context.Context, nCases, workers int, run func(k int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nCases {
		workers = nCases
	}

	errs := make([]error, nCases)
	var minFail atomic.Int64 // lowest failing case index seen so far
	minFail.Store(int64(nCases))
	recordFail := func(k int) {
		for {
			cur := minFail.Load()
			if int64(k) >= cur || minFail.CompareAndSwap(cur, int64(k)) {
				return
			}
		}
	}
	// runCase executes case k and reports whether the worker should keep
	// drawing cases.
	runCase := func(k int) bool {
		if ctx.Err() != nil || int64(k) >= minFail.Load() {
			return false
		}
		if err := run(k); err != nil {
			errs[k] = err
			recordFail(k)
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	var counter atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(counter.Add(1)) - 1
				if k >= nCases || !runCase(k) {
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("contingency: screen canceled: %w", err)
	}
	if k := int(minFail.Load()); k < nCases {
		return errs[k]
	}
	return nil
}

// ParallelScreen runs the N-1 sweep across workers, every case on one
// factorization of the base network's B′ (see dcScreen). Results are ordered
// by outage branch index whatever order the workers ran them in, and the
// error contract matches Screen.
func ParallelScreen(ctx context.Context, n *grid.Network, st powerflow.State, ratings []float64, opts ParallelOptions) ([]Result, error) {
	if len(ratings) != len(n.Branches) {
		return nil, fmt.Errorf("contingency: %d ratings for %d branches", len(ratings), len(n.Branches))
	}
	if opts.LoadingThreshold <= 0 {
		opts.LoadingThreshold = 1.0
	}
	dc, err := newDCScreen(n, st)
	if err != nil {
		return nil, err
	}
	var cases []int
	for bi, br := range n.Branches {
		if br.Status {
			cases = append(cases, bi)
		}
	}

	results := make([]Result, len(cases))
	islanding := bridges(n)
	err = schedule(ctx, len(cases), opts.Workers, func(k int) error {
		out := cases[k]
		results[k] = Result{Outage: out, Islanding: islanding[out]}
		if !results[k].Islanding {
			theta, _ := dc.outage(out)
			results[k].Violations = dcViolations(n, theta, ratings, out, opts.LoadingThreshold)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
