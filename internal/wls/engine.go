package wls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// Engine is a reusable WLS solver bound to one measurement-model structure.
// Construction does the symbolic work once — the Jacobian sparsity plan and
// the gain-matrix plan — so every subsequent Gauss–Newton iteration only
// rewrites numeric values in place:
//
//   - H(x) is refreshed into a fixed CSR skeleton (meas.JacobianPlan),
//   - G = HᵀWH is read row by row off H's column lists into a fixed
//     pattern (sparse.GainPlan), row-parallel on the persistent worker pool,
//   - the LDLᵀ factor (or the Jacobi diagonal) refreshes its numerics on
//     G's fixed pattern, subtrees of its elimination forest side by side on
//     the pool, and under the default the factor's substitution is the gain
//     solve,
//   - where CG runs — Jacobi, a factorization breakdown — it reuses its
//     iteration vectors and is warm-started with the previous iteration's
//     Δx (discarded automatically if it would not help).
//
// One engine serves many solves: IRLS reweighting rounds, DSE Step-2
// re-evaluation rounds, and successive tracking frames all reuse the same
// plans via Rebind. An Engine is not safe for concurrent use.
type Engine struct {
	mod   *meas.Model
	jplan *meas.JacobianPlan
	gplan *sparse.GainPlan
	pool  *sparse.Pool

	// Persistent numeric buffers (m = measurements, n = states).
	baseW, w, z, h, r, wr []float64 // length m
	rhs, dx, prevDx       []float64 // length n
	havePrevDx            bool
	work                  *sparse.CGWorkspace // made on the first CG solve
	rhsScratch            []float64           // pooled-transpose partial accumulators

	// masked counts the zero slots MaskMeasurement left in baseW, and
	// maskedEmpty caches what they leave untouched: the first state only
	// masked rows of H touch, −1 for none, maskedStale until asked.
	masked, maskedEmpty int

	pre     sparse.Preconditioner
	preKind PrecondKind
	havePre bool

	// ldl is the LDLᵀ factor of gplan.G's pattern. Its symbolic analysis is
	// plan-like: ColdStart, ResetReuse, Rebind, masks and a breakdown drop
	// or overwrite its numerics only, and the ordering pass never repeats.
	// pre holds it while the last refresh factored, and a Jacobi stand-in
	// (preKind still PrecondLDL) while the last refresh broke down.
	ldl *sparse.LDLFactor
	// analysis is the LDLᵀ analysis running beside an engine's first solve
	// (startAnalysis); refactor and CloneFor join it. inlineAnalysis keeps
	// it on the caller, for tests.
	analysis       chan ldlAnalysis
	inlineAnalysis bool

	// reuse anchors the drift-gated numeric-reuse tier (Options.GainReuse):
	// the state and weights at the last full gain+preconditioner refresh.
	reuse  gainReuse
	xTrial []float64 // length n, lagged-gain guard trial iterate; G·Δx scratch of the factor check

	// The lagged step's carry: with hValid, h/r already hold the iterate's
	// values (accepted trial, kept warm start); with rhsValid, rhs and jx are
	// HᵀW·r and J there too. Every fused pass lands in rhsTrial, which trades
	// places with rhs when its iterate is taken; both hold a sink element past
	// n, and rhsTrial is made on an engine's first lagged step.
	hValid, rhsValid bool
	rhsTrial         []float64
	jx               float64
}

const maskedStale = -2

// ldlAnalysis is what an overlapped sparse.AnalyzeLDLPool returns.
type ldlAnalysis struct {
	f   *sparse.LDLFactor
	err error
}

// gainReuse is the numeric-reuse anchor carried across Gauss–Newton
// iterations and solves. valid flips false when G is rewritten outside the
// anchor bookkeeping (ReuseOff, SolveLinear, NormalizedResiduals), a kept
// lagged step does not shrink the step, or a session starts a standalone run.
type gainReuse struct {
	valid bool
	x     []float64 // length n, state at last refresh
	w     []float64 // length m, weights at last refresh
}

// NewEngine builds the symbolic plans and buffers for the model. It is the
// expensive part of a cold solve, not a rounding error on it: at 1 416 buses
// the two plans cost about as much as two of the four Gauss–Newton
// iterations that follow (DESIGN §8 has the attribution), so whoever solves
// the same structure again keeps the engine and Rebinds it.
func NewEngine(mod *meas.Model) *Engine {
	jplan := mod.NewJacobianPlan()
	return newEngine(mod, jplan, sparse.NewGainPlan(jplan.H))
}

// newEngine allocates an engine's numeric buffers around its two plans.
func newEngine(mod *meas.Model, jplan *meas.JacobianPlan, gplan *sparse.GainPlan) *Engine {
	e := &Engine{mod: mod, jplan: jplan, gplan: gplan, pool: sparse.DefaultPool()}
	e.allocate()
	return e
}

// allocate makes the engine's numeric buffers for its model.
func (e *Engine) allocate() {
	m, n := e.mod.NMeas(), e.mod.NState()
	e.baseW = e.mod.Weights()
	e.w, e.z, e.h = make([]float64, m), make([]float64, m), make([]float64, m)
	e.r, e.wr = make([]float64, m), make([]float64, m)
	e.rhs = make([]float64, n, n+1)
	e.dx, e.prevDx, e.xTrial = make([]float64, n), make([]float64, n), make([]float64, n)
	e.reuse.x = make([]float64, n)
	e.reuse.w = make([]float64, m)
}

// CloneFor returns an engine for view, a meas.Model.WithoutBranch view of
// the engine's model, on the engine's symbolic work: the clone shares every
// index array — H's and G's patterns, the Jacobian slot map, the gain plan's
// column lists and, once the engine has factored, the whole LDLᵀ analysis —
// and owns only values and buffers (H.Val, G.Val, L and D, weights,
// iteration vectors). It starts unmasked and with no numeric carry, as
// NewEngine(view) would. The shared arrays are never written again, so the
// two engines, and any number of clones, solve concurrently.
func (e *Engine) CloneFor(view *meas.Model) (*Engine, error) {
	jplan, err := e.jplan.CloneFor(view)
	if err != nil {
		return nil, err
	}
	c := newEngine(view, jplan, e.gplan.SharePattern())
	if err := e.joinAnalysis(); err == nil && e.ldl != nil {
		c.ldl = e.ldl.SharePattern()
	}
	return c, nil
}

// ResetReuse drops the drift-gated numeric-reuse anchor: the next gain
// solve refreshes G and the preconditioner unconditionally regardless of
// drift. Sessions call it at the start of standalone runs so repeated runs
// stay bit-identical; tracking operation never needs it.
func (e *Engine) ResetReuse() { e.reuse.valid = false }

// ColdStart drops every numeric carry the engine keeps across solves — the
// drift-gated reuse anchor and the cached preconditioner numerics — so the
// next solve runs the full refresh path exactly as a freshly constructed
// engine would, while keeping all symbolic plans. Session pools call it
// when re-anchoring a pooled what-if engine (contingency.Pool.ResetAnchors);
// for a single-solve reset of the reuse tier alone, ResetReuse suffices.
func (e *Engine) ColdStart() {
	e.reuse.valid = false
	e.havePre = false
	e.pre = nil
	e.havePrevDx = false
}

// Model returns the model the engine is currently bound to.
func (e *Engine) Model() *meas.Model { return e.mod }

// Rebind switches the engine to a structurally identical model (fresh
// telemetry values, same network and metering layout), keeping all symbolic
// plans. It fails without touching the engine if the structures differ.
func (e *Engine) Rebind(mod *meas.Model) error {
	if mod == e.mod {
		return nil
	}
	if err := e.jplan.Rebind(mod); err != nil {
		return err
	}
	e.mod = mod
	e.UnmaskAll()
	return nil
}

// MaskMeasurement zeroes measurement i's weight slot in place. The row
// stays in the Jacobian and gain skeletons — the symbolic plans are
// untouched, so no layout change and no rebuild — but a zero weight kills
// every contribution the row makes to G = HᵀWH, the right-hand side, and
// the objective, which is numerically equivalent to removing it (adding an
// exact 0.0 to a floating-point accumulation is an identity). Masks
// persist across solves on this engine until UnmaskAll — ColdStart keeps
// them; Rebind also resets them, since it recomputes the base weights from
// the new model's sigmas.
//
// A mask is a value: the structural checks the plans make do not see it. So
// the engine counts masked rows out of the m ≥ n test, and a state that
// only masked rows touch fails the next solve with ErrUnobservable, as a
// state no row touches does.
func (e *Engine) MaskMeasurement(i int) error {
	if i < 0 || i >= len(e.baseW) {
		return fmt.Errorf("wls: mask index %d outside [0,%d)", i, len(e.baseW))
	}
	if e.baseW[i] != 0 {
		e.baseW[i] = 0
		e.masked++
		e.maskedEmpty = maskedStale
	}
	return nil
}

// MaskedMeasurement reports whether measurement i is currently masked.
func (e *Engine) MaskedMeasurement(i int) bool {
	return i >= 0 && i < len(e.baseW) && e.baseW[i] == 0
}

// UnmaskAll restores every measurement's 1/σ² base weight, clearing all
// masks set by MaskMeasurement.
func (e *Engine) UnmaskAll() {
	for i, m := range e.mod.Meas {
		e.baseW[i] = 1 / (m.Sigma * m.Sigma)
	}
	e.masked = 0
}

// Estimate runs Gauss–Newton WLS estimation, reusing the engine's plans.
func (e *Engine) Estimate(opts Options) (*Result, error) {
	return e.EstimateCtx(context.Background(), opts)
}

// EstimateCtx runs Gauss–Newton WLS estimation under a context, reusing the
// engine's plans. Semantics match wls.EstimateCtx.
func (e *Engine) EstimateCtx(ctx context.Context, opts Options) (*Result, error) {
	if opts.X0 != nil && len(opts.X0) != e.mod.NState() {
		return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), e.mod.NState())
	}
	return e.estimateWeighted(ctx, opts, nil)
}

// estimateWeighted is the Gauss–Newton core: per-measurement weight scaling
// (nil = all ones) is applied on top of the 1/σ² base weights.
func (e *Engine) estimateWeighted(ctx context.Context, opts Options, scale []float64) (*Result, error) {
	mod := e.mod
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	if m := mod.NMeas() - e.masked; m < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements < %d states", ErrUnobservable, m, mod.NState())
	}
	if err := e.untouchedState(); err != nil {
		return nil, err
	}
	e.startAnalysis(opts)

	x := mod.FlatVec()
	if opts.X0 != nil {
		if len(opts.X0) != mod.NState() {
			return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), mod.NState())
		}
		copy(x, opts.X0)
	}
	copy(e.w, e.baseW)
	if scale != nil {
		for i := range e.w {
			e.w[i] *= scale[i]
		}
	}
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	// Lagged numerics unless ReuseOff asks for exact Gauss–Newton. The
	// weights are fixed for the solve, so the anchor's are compared once, here.
	lag := opts.GainReuse == ReuseGain
	// An unguarded solve rewrites G outside the anchor bookkeeping, so any
	// anchor a previous gated solve left behind is stale after it.
	e.reuse.valid = e.reuse.valid && lag && sparse.EqualVec(e.w, e.reuse.w)

	e.hValid, e.rhsValid = false, false
	if opts.X0 != nil && opts.X0Gate > 0 {
		// Scaled-residual warm-start gate: keep X0 only if it explains the
		// current measurement values markedly better than the flat profile.
		// J at the flat profile costs no state load (the plan keeps h there),
		// and X0 is evaluated last, so a kept start enters the loop with h/r
		// already at its values — and, when its first step can lag, with that
		// step's right-hand side.
		jFlat := e.jplan.FlatObjective(e.z, e.w)
		if e.evalAt(x, e.canLag(x, opts)) > opts.X0Gate*jFlat {
			copy(x, mod.FlatVec())
			e.hValid, e.rhsValid = false, false
		}
	}

	res := &Result{}
	e.havePrevDx = false
	prevStep := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("wls: canceled at iteration %d: %w", iter, err)
		}
		// A lagged step is one fused pass per iterate: h, r, J and HᵀW·r at x,
		// carried from the gate or the accepted trial that produced x (x was
		// advanced by the exact dx the guard tried, so the buffered values are
		// bitwise those of a re-evaluation), and H is not written.
		lagging := e.canLag(x, opts)
		if !e.hValid || lagging && !e.rhsValid {
			e.evalAt(x, lagging)
		}
		haveRHS := e.rhsValid
		e.hValid, e.rhsValid = false, false

		var dx []float64
		var err error
		lagged := false
		if lagging {
			if dx, err = e.solveGain(opts, cgTol, true, res); err == nil && e.trialImproves(x, dx, tol) {
				res.GainSkips++
				res.PrecondSkips++
				lagged = true
			} else {
				// Guard tripped: the stale operator stalled the descent or the
				// solve failed outright. Refresh at the current iterate and
				// re-solve; the trial's pass went to rhsTrial, so rhs still
				// holds HᵀW·r for x.
				res.ReuseFallbacks++
				dx = nil
			}
		}
		if dx == nil {
			if dx, err = e.refreshStep(x, e.jplan.Refresh(x), opts, lag, haveRHS, res); err != nil {
				return nil, err
			}
		}
		step := sparse.NormInf(dx)
		if lagged && step >= prevStep {
			// The stale operator no longer contracts, though J fell: on an
			// ill-conditioned gain a lagged step can trade error along its
			// stiff rows for error along weak ones. The next step refreshes.
			e.reuse.valid = false
		}
		prevStep = step
		sparse.Axpy(1, dx, x)
		res.Iterations = iter + 1
		if step < tol {
			res.Converged = true
			break
		}
	}
	e.finish(res, x)
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// untouchedState reports a state whose column of H is structurally empty.
// No solve can move it: the factor finds no diagonal and Jacobi a zero one.
//
// Masked rows count as absent: the plan's check is structural and cannot
// see a zero weight, so with masks set the unmasked rows of H are walked
// once per change of the mask set.
func (e *Engine) untouchedState() error {
	if i := e.gplan.EmptyRow(); i >= 0 {
		return fmt.Errorf("%w: no measurement touches state %d", ErrUnobservable, i)
	}
	if e.masked == 0 {
		return nil
	}
	if e.maskedEmpty == maskedStale {
		h := e.jplan.H
		touched := make([]bool, h.Cols)
		for m, w := range e.baseW {
			if w != 0 {
				for _, c := range h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]] {
					touched[c] = true
				}
			}
		}
		e.maskedEmpty = slices.Index(touched, false)
	}
	if e.maskedEmpty >= 0 {
		return fmt.Errorf("%w: only masked measurements touch state %d", ErrUnobservable, e.maskedEmpty)
	}
	return nil
}

// SolveLinear performs the single weighted least-squares solve of the
// linear (PMU-only) estimation problem, reusing the engine's plans.
// Semantics match LinearPMUEstimate's solve.
func (e *Engine) SolveLinear(opts Options) (*Result, error) {
	// The linear solve rewrites G and the preconditioner outside the
	// drift-gate bookkeeping, so any reuse anchor is stale afterwards, and so
	// is an h/r carry an Estimate that returned early left behind.
	e.reuse.valid = false
	e.hValid = false
	if err := e.untouchedState(); err != nil {
		return nil, err
	}
	mod := e.mod
	x := mod.FlatVec()
	copy(e.w, e.baseW)
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	e.jplan.EvalInto(e.h, x)
	sparse.Sub(e.r, e.z, e.h)
	hj := e.jplan.Refresh(x)

	res := &Result{Converged: true}
	res.Iterations = 1
	e.refreshGain(hj, opts)
	e.gainRHS(hj, opts)
	e.havePrevDx = false
	dx, err := e.solveGain(opts, cgTolLinear, false, res)
	if err != nil {
		return nil, fmt.Errorf("wls: linear PMU solve: %w", err)
	}
	sparse.Axpy(1, dx, x)
	e.finish(res, x)
	return res, nil
}

// finish evaluates the final residuals — or takes them from the r buffer
// when the last step's accepted trial left it at x — and fills the
// caller-owned result slices (the engine's internal buffers never escape).
func (e *Engine) finish(res *Result, x []float64) {
	r := make([]float64, e.mod.NMeas())
	if e.hValid {
		e.hValid = false
		copy(r, e.r)
	} else {
		e.jplan.EvalInto(e.h, x)
		sparse.Sub(r, e.z, e.h)
	}
	res.X = x
	res.State = e.mod.VecToState(x)
	res.Residuals = r
	for i := range r {
		res.ObjectiveJ += e.w[i] * r[i] * r[i]
	}
}

// refreshGain recomputes G = HᵀWH in place through the gain plan, on the
// pool unless the caller forces serial execution.
func (e *Engine) refreshGain(hj *sparse.CSR, opts Options) {
	if opts.Workers == 1 {
		e.gplan.Refresh(hj, e.w)
	} else {
		e.gplan.RefreshPool(hj, e.w, e.pool)
	}
}

// gainRHS computes rhs = Hᵀ·W·r, using the pooled transpose mat-vec (with
// the engine-owned partial-accumulator scratch) unless the caller forces
// serial execution. Small systems fall back to the serial kernel inside
// MulTransVecPool, so results are unchanged where the pool cannot pay off.
func (e *Engine) gainRHS(hj *sparse.CSR, opts Options) {
	if opts.Workers == 1 {
		sparse.GainRHSInto(e.rhs, hj, e.w, e.r, e.wr)
		return
	}
	if need := e.pool.Workers() * len(e.rhs); len(e.rhsScratch) < need {
		e.rhsScratch = make([]float64, need)
	}
	sparse.GainRHSPool(e.rhs, hj, e.w, e.r, e.wr, e.pool, e.rhsScratch)
}

// canLag gates the numeric reuse for one Gauss–Newton iteration at x: the
// anchor must be valid — which says the solve lags and its weights are the
// anchor's, bit for bit — with the requested preconditioner's numerics still
// cached, and the scaled state drift from the anchor must sit under the
// gate. Anything else is a full refresh.
func (e *Engine) canLag(x []float64, opts Options) bool {
	return e.reuse.valid && e.havePre && e.preKind == opts.Precond &&
		sparse.ScaledDriftInf(x, e.reuse.x) <= ReuseGainGateDefault
}

// noteRefresh anchors the reuse state after a fresh gain + preconditioner
// refresh whose solve succeeded at iterate x.
func (e *Engine) noteRefresh(x []float64) {
	copy(e.reuse.x, x)
	copy(e.reuse.w, e.w)
	e.reuse.valid = true
}

// evalAt leaves h and r at x and returns J(x), which it also keeps in jx.
// With grad it is the fused pass (meas.JacobianPlan.GradInto), and rhs is
// HᵀW·r at x as well.
func (e *Engine) evalAt(x []float64, grad bool) float64 {
	e.hValid = true
	if !grad {
		e.jplan.EvalInto(e.h, x)
		sparse.Sub(e.r, e.z, e.h)
		var j float64
		for i, r := range e.r {
			j += e.w[i] * r * r
		}
		e.jx = j
		return j
	}
	n := len(e.rhs)
	if e.rhsTrial == nil {
		e.rhsTrial = make([]float64, n, n+1)
	}
	e.jx = e.jplan.GradInto(e.rhsTrial[:n+1], e.h, e.r, x, e.z, e.w)
	e.rhs, e.rhsTrial, e.rhsValid = e.rhsTrial, e.rhs, true
	return e.jx
}

// trialImproves is the lagged-gain residual-decrease guard: the lagged step
// dx is kept only if J(x+dx) does not exceed J(x); a fractional slack absorbs
// roundoff on converged iterates where J is flat. The trial evaluation is
// the next iteration's fused pass; a step under tol has no next iteration
// and evaluates h alone. A rejected trial hands rhs at x back and drops the
// carry, h/r being the trial iterate's.
func (e *Engine) trialImproves(x, dx []float64, tol float64) bool {
	copy(e.xTrial, x)
	sparse.Axpy(1, dx, e.xTrial)
	jCur := e.jx
	if e.evalAt(e.xTrial, sparse.NormInf(dx) >= tol) <= jCur*(1+1e-12) {
		return true
	}
	if e.rhsValid {
		e.rhs, e.rhsTrial = e.rhsTrial, e.rhs
	}
	e.hValid, e.rhsValid = false, false
	return false
}

// refreshStep produces one exact Gauss–Newton step for the iterate x: it
// refreshes the gain and the preconditioner from H(x), solves G·Δx = HᵀW·r
// — forming the right-hand side unless a fused pass at x already has — and
// maintains the reuse anchor plus the result's refresh counter. The
// returned slice aliases the engine's dx buffer, like solveGain's.
func (e *Engine) refreshStep(x []float64, hj *sparse.CSR, opts Options, lag, haveRHS bool, res *Result) ([]float64, error) {
	if !haveRHS {
		e.gainRHS(hj, opts)
	}
	e.refreshGain(hj, opts)
	dx, err := e.solveGain(opts, cgTol, false, res)
	res.GainRefreshes++
	if err != nil {
		e.reuse.valid = false
		return nil, err
	}
	if lag {
		e.noteRefresh(x)
	}
	return dx, nil
}

// Relative residual tolerances of the gain solve — CG's stopping test, and
// the bound a fresh factor's substitution is checked against: of a
// Gauss–Newton step, and of the single solve of the linear (PMU-only)
// problem, which has no later iteration to absorb an inexact one.
const (
	cgTol       = 1e-10
	cgTolLinear = 1e-12
)

// solveGain solves G·Δx = rhs into the engine's dx buffer and returns it.
// lagged says G was not refreshed since the preconditioner last was, so the
// cached numerics are the ones to use, and they have solved this G before.
// res takes the CG iteration and preconditioner breakdown counts.
func (e *Engine) solveGain(opts Options, tol float64, lagged bool, res *Result) ([]float64, error) {
	pre, err := e.preconditioner(e.gplan.G, opts, lagged, res)
	if errors.Is(err, sparse.ErrNotSPD) {
		// Not even a diagonal to iterate on: some state moves no weighted
		// measurement at this iterate.
		return nil, fmt.Errorf("%w: %v", ErrUnobservable, err)
	}
	if err != nil {
		return nil, fmt.Errorf("wls: preconditioner: %w", err)
	}
	return e.solveWith(pre, opts, tol, !lagged, res)
}

// solveWith solves G·Δx = rhs given the preconditioner's numerics. An
// intact LDLᵀ factor is the solve: one substitution, and under verify — the
// first solve after a refactorization — one residual check against tol.
// Later solves on the same factor reuse numerics that passed it, and the
// caller's trialImproves guards the step. CG runs where it has work to do:
// Jacobi, the Jacobi stand-in after a factorization breakdown, and from the
// substitution's Δx when the check fails.
func (e *Engine) solveWith(pre sparse.Preconditioner, opts Options, tol float64, verify bool, res *Result) ([]float64, error) {
	g := e.gplan.G
	var x0 []float64
	if f, ok := pre.(*sparse.LDLFactor); ok {
		f.Apply(e.dx, e.rhs)
		if !verify || e.residualWithin(g, tol) {
			return e.dx, nil
		}
		x0 = e.dx
	} else if e.havePrevDx {
		x0 = e.prevDx
	}
	if e.work == nil {
		e.work = &sparse.CGWorkspace{}
	}
	cgOpts := sparse.CGOptions{Tol: tol, Precond: pre, Work: e.work, X0: x0}
	if opts.Workers > 0 {
		cgOpts.Workers = opts.Workers
	} else {
		cgOpts.Pool = e.pool
	}
	cg, err := sparse.CG(g, e.rhs, cgOpts)
	res.CGIterations += cg.Iterations
	if err != nil {
		if errors.Is(err, sparse.ErrNotSPD) {
			return nil, ErrUnobservable
		}
		return nil, err
	}
	// cg.X aliases the workspace and the next solve overwrites it; keep a
	// stable copy, which doubles as the next iteration's warm start.
	copy(e.dx, cg.X)
	copy(e.prevDx, e.dx)
	e.havePrevDx = true
	return e.dx, nil
}

// residualWithin reports whether the dx buffer meets CG's stopping test,
// ‖rhs − G·Δx‖₂ ≤ tol·‖rhs‖₂, at the cost of one mat-vec (into xTrial, free
// whenever a solve runs). A NaN fails it.
func (e *Engine) residualWithin(g *sparse.CSR, tol float64) bool {
	g.MulVec(e.xTrial, e.dx)
	sparse.Sub(e.xTrial, e.rhs, e.xTrial)
	return sparse.Norm2(e.xTrial) <= tol*sparse.Norm2(e.rhs)
}

// preconditioner returns the preconditioner for G: the cached one as it is
// on a lagged G, and otherwise with its numerics refreshed in place when the
// kind is unchanged (G's pattern is fixed by the gain plan, so the symbolic
// setup never repeats). An LDLᵀ refresh that breaks down on a numerically
// singular G degrades to Jacobi for that refresh, counted in
// res.PrecondFallbacks: CG on a semidefinite but consistent system can
// still converge where a factor cannot exist, and where it cannot, CG is
// what reports the gain as not positive definite.
func (e *Engine) preconditioner(g *sparse.CSR, opts Options, lagged bool, res *Result) (sparse.Preconditioner, error) {
	kind := opts.Precond
	cached := e.havePre && e.preKind == kind
	if cached && lagged {
		return e.pre, nil
	}
	switch kind {
	case PrecondLDL:
		switch err := e.refactor(g, e.kernelPool(opts)); {
		case err == nil:
			e.pre, e.preKind, e.havePre = e.ldl, kind, true
			return e.ldl, nil
		case !errors.Is(err, sparse.ErrNotSPD):
			e.havePre = false
			return nil, err
		}
		res.PrecondFallbacks++ // breakdowns are rare: the stand-in is built anew
	case PrecondJacobi:
		if cached {
			if err := e.pre.(*sparse.JacobiPreconditioner).Refresh(g); err != nil {
				e.havePre = false
				return nil, err
			}
			return e.pre, nil
		}
	default:
		return nil, fmt.Errorf("wls: unknown preconditioner %v", kind)
	}
	pre, err := sparse.NewJacobi(g)
	if err != nil {
		e.havePre = false
		return nil, err
	}
	e.pre, e.preKind, e.havePre = pre, kind, true
	return pre, nil
}

// refactor refreshes the LDLᵀ factor's numerics from g on pool (nil:
// serially), joining or running the symbolic analysis first if the engine
// has none yet.
func (e *Engine) refactor(g *sparse.CSR, pool *sparse.Pool) error {
	if err := e.joinAnalysis(); err != nil {
		return err
	}
	if e.ldl == nil {
		f, err := sparse.AnalyzeLDLPool(g, pool)
		if err != nil {
			return err
		}
		e.ldl = f
	}
	return e.ldl.RefreshPool(g, pool)
}

// kernelPool is the pool the gain kernels and the factor run on: none when
// the caller forces serial execution.
func (e *Engine) kernelPool(opts Options) *sparse.Pool {
	if opts.Workers == 1 {
		return nil
	}
	return e.pool
}

// startAnalysis starts the LDLᵀ analysis of G's pattern on a goroutine when
// a solve is about to factor for the first time and the factor will run on
// the pool: the analysis reads only the pattern, which the gain plan fixed,
// so the first step's numerics — h(x), H, the right-hand side, G — run on
// the caller meanwhile. The goroutine ends with the analysis, and the
// channel holds its result, so an engine dropped unjoined leaks nothing.
// Below the pool's gates the analysis runs where refactor needs it.
func (e *Engine) startAnalysis(opts Options) {
	pool := e.kernelPool(opts)
	if e.ldl != nil || e.analysis != nil || e.inlineAnalysis || opts.Precond != PrecondLDL ||
		pool.Workers() <= 1 || e.gplan.G.NNZ() < sparse.ParallelNNZThreshold {
		return
	}
	ch, g := make(chan ldlAnalysis, 1), e.gplan.G
	e.analysis = ch
	go func() {
		f, err := sparse.AnalyzeLDLPool(g, pool)
		ch <- ldlAnalysis{f, err}
	}()
}

// joinAnalysis waits for a pending analysis and takes its factor.
func (e *Engine) joinAnalysis() error {
	if e.analysis == nil {
		return nil
	}
	a := <-e.analysis
	e.analysis, e.ldl = nil, a.f
	return a.err
}

// NormalizedResiduals computes rᴺ_i = |r_i| / √Ω_ii for a result on the
// engine's model, where Ω = R − H·G⁻¹·Hᵀ is the residual covariance. H and G
// are refreshed at res.X under the unscaled weights and G is refactored on
// the engine's cached LDLᵀ analysis, so each Ω_ii = σ_i² − h_i·G⁻¹·h_iᵀ is one
// substitution. A masked row contributes nothing to G and a critical one
// (Ω_ii < 1e-8·σ_i², relative so that it holds at any meter precision) has a
// structurally zero residual whose error is undetectable: both report 0 and
// are never flagged.
func (e *Engine) NormalizedResiduals(res *Result) ([]float64, error) {
	// G and its factor are rewritten outside the drift-gate bookkeeping: with
	// the anchor dropped, the next solve refreshes both before it lags.
	e.reuse.valid = false
	hj := e.jplan.Refresh(res.X)
	copy(e.w, e.baseW)
	if err := e.refactor(e.gplan.RefreshPool(hj, e.w, e.pool), e.pool); err != nil {
		return nil, fmt.Errorf("wls: gain factorization for residual covariance: %w", err)
	}
	out := make([]float64, len(e.w))
	hi, y := make([]float64, len(e.rhs)), make([]float64, len(e.rhs))
	for i, m := range e.mod.Meas {
		if e.w[i] == 0 {
			continue
		}
		row := hj.ColIdx[hj.RowPtr[i]:hj.RowPtr[i+1]]
		vals := hj.Val[hj.RowPtr[i]:hj.RowPtr[i+1]]
		for k, c := range row {
			hi[c] = vals[k]
		}
		e.ldl.Apply(y, hi)
		var hgh float64
		for k, c := range row {
			hgh += vals[k] * y[c]
			hi[c] = 0
		}
		s2 := m.Sigma * m.Sigma
		if omega := s2 - hgh; omega >= 1e-8*s2 {
			out[i] = math.Abs(res.Residuals[i]) / math.Sqrt(omega)
		}
	}
	return out, nil
}
