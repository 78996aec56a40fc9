package wls

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// EstimateCtx runs Gauss–Newton WLS estimation on the measurement model.
// Cancellation is checked at the top of every Gauss–Newton iteration, so
// an expired or canceled context aborts the solve with ctx.Err() instead
// of finishing the current estimation.
//
// It is a single-use engine. The LDLᵀ analysis reads only G's pattern,
// which the network and the meters fix (meas.GainPattern), so the solve
// starts it before the Jacobian plan, the gain plan built on that pattern
// and the buffers are made. Callers that solve the same structure
// repeatedly (IRLS, DSE rounds, tracking) should hold an Engine instead.
func EstimateCtx(ctx context.Context, mod *meas.Model, opts Options) (*Result, error) {
	if mod.NMeas() < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements < %d states", ErrUnobservable, mod.NMeas(), mod.NState())
	}
	e := &Engine{mod: mod, pool: sparse.DefaultPool()}
	g := e.writePattern(opts)
	e.jplan = mod.NewJacobianPlan()
	e.gplan = gainPlan(e.jplan.H, g)
	e.allocate()
	return e.estimateWeighted(ctx, opts, nil)
}

// EstimateFrame is EstimateCtx on meas.NewModel(n, ms, ref, refAngle), bit
// for bit, with the model's build overlapped too: G's pattern needs no
// model, so where the solve analyzes on a goroutine — its kernel pool has
// more than one worker — that goroutine writes the pattern from n and ms and
// analyzes it while the caller builds the model and the Jacobian plan. The
// caller waits for the pattern only where the gain plan needs it, and writes
// it itself if the goroutine has not started on it by then, so a solve too
// small to wait for a goroutine's wake-up does not. A set NewModel rejects
// returns NewModel's error, and its goroutine, which refuses the set too,
// analyzes nothing.
func EstimateFrame(ctx context.Context, n *grid.Network, ms []meas.Measurement, ref int, refAngle float64, opts Options) (*Result, error) {
	return estimateFrame(ctx, n, ms, ref, refAngle, opts, nil)
}

// estimateFrame is EstimateFrame that calls started, if not nil, on the
// pattern job right after its goroutine has started, for tests to wait
// there until the goroutine has claimed it.
func estimateFrame(ctx context.Context, n *grid.Network, ms []meas.Measurement, ref int, refAngle float64, opts Options, started func(*frameJob)) (*Result, error) {
	e := &Engine{pool: sparse.DefaultPool()}
	job := e.startFrame(n, ms, ref, opts)
	if job != nil && started != nil {
		started(job)
	}
	mod, err := meas.NewModel(n, ms, ref, refAngle)
	if err != nil {
		job.claim() // a goroutine not started on the pattern then writes none
		return nil, err
	}
	e.mod = mod
	e.jplan = mod.NewJacobianPlan()
	g := e.takePattern(job, opts)
	e.gplan = gainPlan(e.jplan.H, g)
	e.allocate()
	return e.estimateWeighted(ctx, opts, nil)
}

// frameJob is G's pattern, and its LDLᵀ analysis, that EstimateFrame's
// goroutine writes beside the model build. Whoever claims the job first
// writes the pattern: the goroutine, or the caller when it needs the
// pattern or has failed before.
type frameJob struct {
	claimed atomic.Bool
	written sync.WaitGroup // done once g and analyzed are set
	g       *sparse.CSR    // nil where meas.GainPattern refused the set
	// analyzed reports whether the goroutine analyzes g, into analysis.
	analyzed bool
	analysis pendingAnalysis
}

// claim reports whether the caller claimed the job, which a nil job (no
// goroutine) leaves to it.
func (job *frameJob) claim() bool {
	return job == nil || job.claimed.CompareAndSwap(false, true)
}

// startFrame starts the goroutine that writes G's pattern for ms on n and
// then analyzes it where startAnalysis would have: above
// sparse.ParallelNNZThreshold. On a one-worker pool it starts none and
// returns nil.
func (e *Engine) startFrame(n *grid.Network, ms []meas.Measurement, ref int, opts Options) *frameJob {
	pool := e.kernelPool(opts)
	if pool.Workers() <= 1 {
		return nil
	}
	job := &frameJob{}
	job.written.Add(1)
	go func() {
		if !job.claimed.CompareAndSwap(false, true) {
			return
		}
		job.g, _ = meas.GainPattern(n, ms, ref)
		job.analyzed = job.g != nil && job.g.NNZ() >= sparse.ParallelNNZThreshold
		if job.analyzed {
			job.analysis.done.Add(1)
		}
		job.written.Done()
		if job.analyzed {
			job.analysis.run(job.g, pool)
		}
	}()
	return job
}

// takePattern returns G's pattern for the engine's model: the goroutine's,
// taking over its analysis, if it claimed the job, and otherwise written
// here, the analysis started as on a model (writePattern).
func (e *Engine) takePattern(job *frameJob, opts Options) *sparse.CSR {
	if job.claim() {
		return e.writePattern(opts)
	}
	job.written.Wait()
	if job.analyzed {
		e.analysis = &job.analysis
	}
	return job.g
}

// writePattern writes G's pattern for the engine's model and starts its
// analysis (startAnalysis). It returns nil where meas.GainPattern refuses
// the model's meters: a set edited in place, past NewModel's checks, after
// the model was built.
func (e *Engine) writePattern(opts Options) *sparse.CSR {
	g, ok := meas.GainPattern(e.mod.Net, e.mod.Meas, e.mod.RefBus())
	if ok {
		e.startAnalysis(g, opts)
	}
	return g
}

// gainPlan is the gain plan on g, G's pattern as meas.GainPattern writes
// it, or, where that was refused (g nil), on the pattern walked off h.
func gainPlan(h, g *sparse.CSR) *sparse.GainPlan {
	if g == nil {
		return sparse.NewGainPlan(h)
	}
	return sparse.NewGainPlanOn(h, g)
}
