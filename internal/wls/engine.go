package wls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/meas"
	"repro/internal/powerflow"
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
//   - the LDLᵀ factor refreshes its numerics on G's fixed pattern, subtrees
//     of its elimination forest side by side on the pool, and its
//     substitution is the gain solve: refined on the same factor where it
//     fails its residual check, and on G + μ·diag(G) where G breaks the
//     factorization down.
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
	baseW, w, z, h, r []float64 // length m
	rhs, dx           []float64 // length n

	// masked counts the zero slots MaskMeasurement left in baseW, and
	// maskedEmpty caches what they leave untouched: the first state only
	// masked rows of H touch, −1 for none, maskedStale until asked.
	masked, maskedEmpty int
	// wGen counts the changes to baseW — masks, UnmaskAll, a Rebind — and
	// wFrom is the generation w was last copied from, 0 once a scale rewrote
	// it: a solve rewrites w only when the two differ (loadWeights).
	wGen, wFrom uint64

	// ldl is the LDLᵀ factor of gplan.G's pattern. Its symbolic analysis is
	// plan-like: ColdStart, ResetReuse, Rebind, masks and a breakdown drop
	// or overwrite its numerics only, and the ordering pass never repeats.
	// factored says its numerics are G's as last refreshed, undamped, so a
	// lagged step may solve on them.
	ldl      *sparse.LDLFactor
	factored bool
	// analysis is the LDLᵀ analysis running beside an engine's first solve
	// (startAnalysis, or EstimateFrame's goroutine); refactor and CloneFor
	// join it. inlineAnalysis keeps it on the caller, for tests.
	analysis       *pendingAnalysis
	inlineAnalysis bool

	// reuse anchors the drift-gated numeric-reuse tier (Options.GainReuse):
	// the state and weights at the last full gain and factor refresh.
	reuse  gainReuse
	xTrial []float64 // length n, lagged-gain guard trial iterate; G·Δx scratch of the factor check

	// The carry between passes: with hValid, h/r already hold the iterate's
	// values and jx is J there (accepted trial, kept warm start); with
	// rhsValid, rhs is HᵀW·r there too. Every fused pass lands in rhsTrial,
	// which trades places with rhs when its iterate is taken; both hold a
	// sink element past n, and rhsTrial is made on an engine's first pass.
	hValid, rhsValid bool
	rhsTrial         []float64
	jx               float64
}

const maskedStale = -2

// pendingAnalysis is an overlapped sparse.AnalyzeLDLPool: f and err are
// set once done is.
type pendingAnalysis struct {
	done sync.WaitGroup
	f    *sparse.LDLFactor
	err  error
}

// run analyzes g for pool and marks the analysis done; done must have been
// added to.
func (a *pendingAnalysis) run(g *sparse.CSR, pool *sparse.Pool) {
	a.f, a.err = sparse.AnalyzeLDLPool(g, pool)
	a.done.Done()
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

// NewEngine builds the symbolic plans and buffers for the model: the
// Jacobian plan, and the gain plan on the pattern of G that
// meas.GainPattern writes in closed form from the model's network, meters
// and reference. They are the expensive part of a cold solve, with the
// LDLᵀ analysis its first solve starts, not a rounding error on it (DESIGN
// §8 has the attribution), so whoever solves the same structure again keeps
// the engine and Rebinds it.
func NewEngine(mod *meas.Model) *Engine {
	jplan := mod.NewJacobianPlan()
	g, _ := meas.GainPattern(mod.Net, mod.Meas, mod.RefBus())
	return newEngine(mod, jplan, gainPlan(jplan.H, g))
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
	e.wGen++
	e.w, e.z, e.h = make([]float64, m), make([]float64, m), make([]float64, m)
	e.r = make([]float64, m)
	e.rhs = make([]float64, n, n+1)
	e.dx, e.xTrial = make([]float64, n), make([]float64, n)
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
// solve refreshes G and the factor unconditionally regardless of drift.
// Sessions call it at the start of standalone runs so repeated runs stay
// bit-identical; tracking operation never needs it.
func (e *Engine) ResetReuse() { e.reuse.valid = false }

// ColdStart drops every numeric carry the engine keeps across solves — the
// drift-gated reuse anchor and the cached factor numerics — so the
// next solve runs the full refresh path exactly as a freshly constructed
// engine would, while keeping all symbolic plans. Session pools call it
// when re-anchoring a pooled what-if engine (contingency.Pool.ResetAnchors);
// for a single-solve reset of the reuse tier alone, ResetReuse suffices.
func (e *Engine) ColdStart() {
	e.reuse.valid = false
	e.factored = false
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
		e.wGen++
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
	e.wGen++
	e.masked = 0
}

// Estimate runs Gauss–Newton WLS estimation, reusing the engine's plans.
func (e *Engine) Estimate(opts Options) (*Result, error) {
	return e.EstimateCtx(context.Background(), opts)
}

// EstimateCtx runs Gauss–Newton WLS estimation under a context, reusing the
// engine's plans. Semantics match wls.EstimateCtx.
func (e *Engine) EstimateCtx(ctx context.Context, opts Options) (*Result, error) {
	return e.estimateWeighted(ctx, opts, nil)
}

// estimateWeighted is the Gauss–Newton core: per-measurement weight scaling
// (nil = all ones) is applied on top of the 1/σ² base weights. It starts
// the LDLᵀ analysis if the engine has none and none is pending, which on a
// one-shot solve (EstimateCtx, EstimateFrame) has started already.
func (e *Engine) estimateWeighted(ctx context.Context, opts Options, scale []float64) (*Result, error) {
	mod := e.mod
	tol, maxIter := opts.limits()
	if m := mod.NMeas() - e.masked; m < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements < %d states", ErrUnobservable, m, mod.NState())
	}
	if err := e.untouchedState(); err != nil {
		return nil, err
	}
	e.startAnalysis(e.gplan.G, opts)
	if opts.X0 != nil && len(opts.X0) != mod.NState() {
		return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), mod.NState())
	}

	block := e.newBlock()
	x := block[:mod.NState():mod.NState()]
	if opts.X0 != nil {
		copy(x, opts.X0)
	} else {
		e.flatInto(x)
	}
	rewritten := e.loadWeights(scale)
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	// Lagged numerics unless ReuseOff asks for exact Gauss–Newton. The
	// weights are fixed for the solve, so the anchor's are compared once,
	// here, and only if they were rewritten: the anchor holds w as it was.
	lag := opts.GainReuse == ReuseGain
	// An unguarded solve rewrites G outside the anchor bookkeeping, so any
	// anchor a previous gated solve left behind is stale after it.
	e.reuse.valid = e.reuse.valid && lag && (!rewritten || sparse.EqualVec(e.w, e.reuse.w))

	e.hValid, e.rhsValid = false, false
	if opts.X0 != nil && opts.X0Gate > 0 {
		// Scaled-residual warm-start gate: keep X0 only if it explains the
		// current measurement values markedly better than the flat profile.
		// J at the flat profile costs no state load (the plan keeps h there),
		// and X0 is evaluated last, so a kept start enters the loop with h/r
		// at its values — and, when its first step can lag, with that step's
		// right-hand side; a first step that refreshes takes its fused pass
		// at loop entry, on the state this evaluation loaded. A rejected
		// start has formed no HᵀW·r it then throws away.
		jFlat := e.jplan.FlatObjective(e.z, e.w)
		if e.evalAt(x, e.canLag(x, opts)) > opts.X0Gate*jFlat {
			e.flatInto(x)
			e.hValid, e.rhsValid = false, false
		}
	}

	res := &Result{}
	prevStep := math.Inf(1)
	var damped *sparse.PivotError // the last refresh's breakdown, nil if it factored
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("wls: canceled at iteration %d: %w", iter, err)
		}
		// Every iterate is one fused pass: h, r, J and HᵀW·r at x, carried
		// from the gate or the accepted trial that produced x (x was advanced
		// by the exact dx the guard tried, so the buffered values are bitwise
		// those of a re-evaluation). A lagged step writes no H; a refreshed
		// one writes H on the pass's state load and takes its HᵀW·r.
		lagging := e.canLag(x, opts)
		if !e.rhsValid {
			e.evalAt(x, true)
		}
		e.hValid, e.rhsValid = false, false

		var dx []float64
		var step float64
		lagged := false
		if lagging {
			dx = e.solveLagged()
			if step = sparse.NormInf(dx); e.trialImproves(x, dx, step >= tol) {
				res.GainSkips++
				res.PrecondSkips++
				lagged = true
			} else {
				// Guard tripped: the stale operator stalled the descent.
				// Refresh at the current iterate and re-solve; the trial's
				// pass went to rhsTrial, so rhs still holds HᵀW·r for x.
				res.ReuseFallbacks++
				dx = nil
			}
		}
		if dx == nil {
			var err error
			if dx, damped, err = e.refreshStep(x, e.jplan.Refresh(x), opts, lag, res); err != nil {
				return nil, err
			}
			step = sparse.NormInf(dx)
		}
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
	if damped != nil {
		// The estimate rests on a damped step: G is singular at it.
		return nil, e.unobservableAt(damped)
	}
	e.finish(res, block)
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

// untouchedState reports a state whose column of H is structurally empty,
// naming its quantity and bus as unobservableAt does.
// No solve can move it: the factor finds a zero diagonal, damped or not.
//
// Masked rows count as absent: the plan's check is structural and cannot
// see a zero weight, so with masks set the unmasked rows of H are walked
// once per change of the mask set.
func (e *Engine) untouchedState() error {
	if i := e.gplan.EmptyRow(); i >= 0 {
		return fmt.Errorf("%w: no measurement touches %s", ErrUnobservable, e.stateName(i))
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
		return fmt.Errorf("%w: only masked measurements touch %s", ErrUnobservable, e.stateName(e.maskedEmpty))
	}
	return nil
}

// SolveLinear performs the single weighted least-squares solve of the
// linear (PMU-only) estimation problem, reusing the engine's plans.
// Semantics match LinearPMUEstimate's solve.
func (e *Engine) SolveLinear(opts Options) (*Result, error) {
	// The linear solve rewrites G and the factor outside the
	// drift-gate bookkeeping, so any reuse anchor is stale afterwards, and so
	// is an h/r carry an Estimate that returned early left behind.
	e.reuse.valid = false
	e.hValid = false
	if err := e.untouchedState(); err != nil {
		return nil, err
	}
	mod := e.mod
	block := e.newBlock()
	x := block[:mod.NState():mod.NState()]
	e.flatInto(x)
	e.loadWeights(nil)
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	e.evalAt(x, true)
	e.hValid, e.rhsValid = false, false // x moves before finish reads them
	hj := e.jplan.Refresh(x)

	res := &Result{Converged: true}
	res.Iterations = 1
	e.refreshGain(hj, opts)
	dx, damped, err := e.solveGain(opts, solveTolLinear, res)
	if err == nil && damped != nil {
		err = e.unobservableAt(damped)
	}
	if err != nil {
		return nil, fmt.Errorf("wls: linear PMU solve: %w", err)
	}
	sparse.Axpy(1, dx, x)
	e.finish(res, block)
	return res, nil
}

// newBlock allocates the float block one solve's result is carved from:
// the state vector x, which the solve iterates in place, then the result's
// Vm, Va and residuals (finish).
func (e *Engine) newBlock() []float64 {
	return make([]float64, e.mod.NState()+2*e.mod.Net.N()+e.mod.NMeas())
}

// flatInto writes the flat start, as meas.Model.FlatVec lays it out, into x.
func (e *Engine) flatInto(x []float64) {
	ref := e.mod.RefAngle()
	for i := range x {
		if _, angle := e.mod.StateBus(i); angle {
			x[i] = ref
		} else {
			x[i] = 1
		}
	}
}

// loadWeights sets w to the solve's weights, baseW times scale (nil: all
// ones), and reports whether it rewrote them. An unscaled solve leaves w
// alone while it holds baseW's current generation: no mask, UnmaskAll,
// Rebind or scaled solve has changed either since w was copied.
func (e *Engine) loadWeights(scale []float64) bool {
	if scale == nil && e.wFrom == e.wGen {
		return false
	}
	copy(e.w, e.baseW)
	e.wFrom = e.wGen
	if scale != nil {
		for i := range e.w {
			e.w[i] *= scale[i]
		}
		e.wFrom = 0
	}
	return true
}

// finish evaluates the final residuals and J — or takes them from the r
// buffer and jx when the last step's accepted trial left them at x, jx being
// the same sum in the same order — and fills the result from block, whose
// head is x: X, then State.Vm and State.Va as meas.Model.VecToState unpacks
// them, then the residuals (the engine's internal buffers never escape).
func (e *Engine) finish(res *Result, block []float64) {
	mod := e.mod
	n, nb := mod.NState(), mod.Net.N()
	x := block[:n:n]
	vm, va := block[n:n+nb:n+nb], block[n+nb:n+2*nb:n+2*nb]
	for i, v := range x {
		if bus, angle := mod.StateBus(i); angle {
			va[bus] = v
		} else {
			vm[bus] = v
		}
	}
	va[mod.RefBus()] = mod.RefAngle()
	r := block[n+2*nb:]
	res.X = x
	res.State = powerflow.State{Vm: vm, Va: va}
	res.Residuals = r
	if e.hValid {
		e.hValid = false
		copy(r, e.r)
		res.ObjectiveJ = e.jx
		return
	}
	e.jplan.EvalInto(e.h, x)
	sparse.Sub(r, e.z, e.h)
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

// canLag gates the numeric reuse for one Gauss–Newton iteration at x: the
// anchor must be valid — which says the solve lags and its weights are the
// anchor's, bit for bit — with the factor's numerics still cached, and the
// scaled state drift from the anchor must sit under the gate. Anything else
// is a full refresh.
func (e *Engine) canLag(x []float64, opts Options) bool {
	return e.reuse.valid && e.factored && sparse.ScaledDriftInf(x, e.reuse.x) <= ReuseGainGateDefault
}

// noteRefresh anchors the reuse state after a fresh gain and factor refresh
// whose solve succeeded at iterate x.
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
// the next iteration's fused pass (next: the step is not under tol); the
// last step has no next iteration and evaluates h alone. A rejected trial
// hands rhs at x back and drops the carry, h/r being the trial iterate's.
func (e *Engine) trialImproves(x, dx []float64, next bool) bool {
	copy(e.xTrial, x)
	sparse.Axpy(1, dx, e.xTrial)
	jCur := e.jx
	if e.evalAt(e.xTrial, next) <= jCur*(1+1e-12) {
		return true
	}
	if e.rhsValid {
		e.rhs, e.rhsTrial = e.rhsTrial, e.rhs
	}
	e.hValid, e.rhsValid = false, false
	return false
}

// refreshStep produces one Gauss–Newton step for the iterate x: it
// refreshes the gain and the factor from H(x), solves G·Δx = HᵀW·r on the
// right-hand side the fused pass at x left in rhs, and maintains the reuse
// anchor plus the result's refresh counter. A damped step (solveGain)
// comes back with its breakdown and anchors no reuse. The returned slice
// aliases the engine's dx buffer.
func (e *Engine) refreshStep(x []float64, hj *sparse.CSR, opts Options, lag bool, res *Result) ([]float64, *sparse.PivotError, error) {
	e.refreshGain(hj, opts)
	dx, damped, err := e.solveGain(opts, solveTol, res)
	res.GainRefreshes++
	if err != nil || damped != nil {
		e.reuse.valid = false
		return dx, damped, err
	}
	if lag {
		e.noteRefresh(x)
	}
	return dx, nil, nil
}

// The gain solve's constants: the relative residual bounds a fresh
// factor's substitution is checked against, ‖rhs − G·Δx‖₂ ≤ tol·‖rhs‖₂, of a
// Gauss–Newton step and of the single solve of the linear (PMU-only)
// problem, which has no later iteration to absorb an inexact one; the
// refinement steps a substitution may take to pass (one off by a relative
// δ gains about a factor δ a step); and μ of the Levenberg–Marquardt step a
// breakdown takes, far below any weight ratio a solvable gain needs and far
// above the factor's pivot floor, so G + μ·diag(G) factors wherever G's
// diagonal is positive.
const (
	solveTol         = 1e-10
	solveTolLinear   = 1e-12
	maxRefinements   = 4
	breakdownDamping = 1e-8
)

// solveLagged solves G·Δx = rhs by one substitution on the factor as it
// stands into the engine's dx buffer and returns it.
func (e *Engine) solveLagged() []float64 {
	e.ldl.Apply(e.dx, e.rhs)
	return e.dx
}

// solveGain refactors G and solves G·Δx = rhs into the engine's dx buffer
// and returns it, checked and refined by solveRefined. Where G breaks the
// factorization down it takes refactorDamped's factor instead and returns
// that step unchecked beside the breakdown: a damped step is no solution
// of G, and refining toward one diverges on a singular G.
func (e *Engine) solveGain(opts Options, tol float64, res *Result) ([]float64, *sparse.PivotError, error) {
	err := e.refactor(e.gplan.G, e.kernelPool(opts))
	if e.factored = err == nil; e.factored {
		dx, err := e.solveRefined(tol)
		return dx, nil, err
	}
	pe, err := e.refactorDamped(err, opts, res)
	if err != nil {
		return nil, nil, err
	}
	return e.solveLagged(), pe, nil
}

// refactorDamped answers a failed refresh of G: a breakdown refactors
// G + μ·diag(G) on the same analysis, counted in res.PrecondFallbacks, and
// returns the breakdown; a damped gain that breaks down too is
// ErrUnobservable. It is apart from solveGain because the error it
// inspects escapes, and so costs an allocation only where a refresh failed.
func (e *Engine) refactorDamped(err error, opts Options, res *Result) (*sparse.PivotError, error) {
	var pe *sparse.PivotError
	if !errors.As(err, &pe) {
		return nil, fmt.Errorf("wls: gain factorization: %w", err)
	}
	res.PrecondFallbacks++
	g := e.gplan.G
	d := g.SharePattern()
	copy(d.Val, g.Val)
	for i := range g.Rows { // every row of G holds its diagonal: the analysis requires it
		d.Val[g.RowPtr[i]+slices.Index(g.ColIdx[g.RowPtr[i]:g.RowPtr[i+1]], i)] *= 1 + breakdownDamping
	}
	var again *sparse.PivotError
	if errors.As(e.ldl.RefreshPool(d, e.kernelPool(opts)), &again) { // d has G's pattern: only a pivot fails it
		return nil, e.unobservableAt(again)
	}
	return pe, nil
}

// solveRefined solves G·Δx = rhs on a fresh factor of G into the engine's
// dx buffer and returns it: one substitution, checked against tol and
// refined on the same factor, Δx += F⁻¹(rhs − G·Δx), until it passes, at
// most maxRefinements times and not at all past a NaN.
func (e *Engine) solveRefined(tol float64) ([]float64, error) {
	g, dx := e.gplan.G, e.solveLagged()
	for k := 0; !e.residualWithin(g, tol); k++ {
		if r := sparse.Norm2(e.xTrial); k == maxRefinements || math.IsNaN(r) { // refining a NaN leaves a NaN
			return nil, fmt.Errorf("wls: gain solve: residual norm %g against a right-hand side of norm %g after %d refinements", r, sparse.Norm2(e.rhs), k)
		}
		e.ldl.Apply(e.xTrial, e.xTrial)
		sparse.Axpy(1, e.xTrial, dx)
	}
	return dx, nil
}

// residualWithin reports whether the dx buffer meets the bound
// ‖rhs − G·Δx‖₂ ≤ tol·‖rhs‖₂, at the cost of one mat-vec, and leaves
// rhs − G·Δx in xTrial (free whenever a solve runs). A NaN fails it.
func (e *Engine) residualWithin(g *sparse.CSR, tol float64) bool {
	g.MulVec(e.xTrial, e.dx)
	sparse.Sub(e.xTrial, e.rhs, e.xTrial)
	return sparse.Norm2(e.xTrial) <= tol*sparse.Norm2(e.rhs)
}

// unobservableAt is ErrUnobservable for a gain that broke the factorization
// down at pe, naming the bus and quantity of the state whose pivot failed.
func (e *Engine) unobservableAt(pe *sparse.PivotError) error {
	return fmt.Errorf("%w: gain singular at %s: %w", ErrUnobservable, e.stateName(pe.State), pe)
}

// stateName names state i by quantity and bus ID: "the angle of bus 7".
func (e *Engine) stateName(i int) string {
	bus, angle := e.mod.StateBus(i)
	quantity := "voltage magnitude"
	if angle {
		quantity = "angle"
	}
	return fmt.Sprintf("the %s of bus %d", quantity, e.mod.Net.Buses[bus].ID)
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

// startAnalysis starts the LDLᵀ analysis of g, G's pattern, on a goroutine
// when a solve is about to factor for the first time and the factor will
// run on the pool: the analysis reads only the pattern, which the network
// and the meters fix, so what the caller does meanwhile — the plans of a
// one-shot solve, the first step's numerics — overlaps it. g must be, or
// share its index arrays with, the gain plan's G. The goroutine ends with
// the analysis, which holds its result, so an engine dropped unjoined, or
// a solve that fails before it factors, leaks nothing. Below
// the pool's gates the analysis runs where refactor needs it. EstimateFrame
// starts the analysis earlier, on the goroutine that writes the pattern
// (startFrame), and calls this only where that goroutine had not started.
func (e *Engine) startAnalysis(g *sparse.CSR, opts Options) {
	pool := e.kernelPool(opts)
	if e.ldl != nil || e.analysis != nil || e.inlineAnalysis ||
		pool.Workers() <= 1 || g.NNZ() < sparse.ParallelNNZThreshold {
		return
	}
	e.analysis = &pendingAnalysis{}
	e.analysis.done.Add(1)
	go e.analysis.run(g, pool)
}

// joinAnalysis waits for a pending analysis and takes its factor.
func (e *Engine) joinAnalysis() error {
	if e.analysis == nil {
		return nil
	}
	a := e.analysis
	a.done.Wait()
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
	e.loadWeights(nil)
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
