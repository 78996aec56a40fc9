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

// Scheduling selects how N-1 cases are distributed over workers. The
// paper's HPC state-estimation code [2] grew out of PNNL's counter-based
// dynamic load balancing for massive contingency analysis (Chen, Huang,
// Chavarría-Miranda 2010); both schemes are provided so the ablation
// benchmark can reproduce that comparison.
type Scheduling int

// Scheduling schemes.
const (
	// StaticScheduling pre-assigns an equal contiguous slice of cases to
	// each worker. Imbalance arises when case costs differ (islanding
	// cases are cheap, re-solves expensive).
	StaticScheduling Scheduling = iota
	// CounterScheduling is the dynamic scheme: workers grab the next case
	// from a shared atomic counter as they finish, self-balancing.
	CounterScheduling
)

// ParallelOptions configures a parallel screen.
type ParallelOptions struct {
	Options
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// Scheduling selects static or counter-based dynamic assignment.
	Scheduling Scheduling
}

// schedule fans cases 0..nCases-1 out across workers under the selected
// scheduling scheme, running `run` at most once per case. It implements the
// deterministic error contract shared by every sweep entry point:
//
//   - Cancellation is checked before each case; a canceled context wins
//     over case errors and is returned wrapped.
//   - Otherwise, if any case failed, the returned error is the one for the
//     lowest-numbered failing case — regardless of worker count or
//     scheduling mode. Workers skip cases above the lowest failure seen so
//     far (their results are discarded anyway), but every case below it
//     still runs, so the winning error is deterministic whenever the
//     per-case failures are.
//
// Both modes hand each worker an ascending sequence of case indices, which
// is what lets a worker stop drawing cases (rather than merely skip) once
// it reaches the failure watermark.
func schedule(ctx context.Context, nCases, workers int, sched Scheduling, run func(k int) error) error {
	if sched != StaticScheduling && sched != CounterScheduling {
		return fmt.Errorf("contingency: unknown scheduling %d", sched)
	}
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
	switch sched {
	case StaticScheduling:
		for w := 0; w < workers; w++ {
			lo := w * nCases / workers
			hi := (w + 1) * nCases / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for k := lo; k < hi; k++ {
					if !runCase(k) {
						return
					}
				}
			}(lo, hi)
		}
	case CounterScheduling:
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
// by outage branch index regardless of scheduling, and the error contract
// matches Screen.
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
	chk := newIslandChecker(n)
	err = schedule(ctx, len(cases), opts.Workers, opts.Scheduling, func(k int) error {
		out := cases[k]
		results[k] = Result{Outage: out, Islanding: chk.islands(out)}
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
