package wls

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// Engine is a reusable WLS solver bound to one measurement-model structure.
// Construction does the symbolic work once — the Jacobian sparsity plan,
// the gain-matrix scatter plan, the CG workspace — so every subsequent
// Gauss–Newton iteration only rewrites numeric values in place:
//
//   - H(x) is refreshed into a fixed CSR skeleton (meas.JacobianPlan),
//   - G = HᵀWH is a flat multiply-accumulate over a precomputed scatter map
//     (sparse.GainPlan), row-parallel on the persistent worker pool,
//   - the preconditioner refreshes its numerics on G's fixed pattern,
//   - CG reuses its iteration vectors and is warm-started with the previous
//     iteration's Δx (discarded automatically if it would not help).
//
// One engine serves many solves: IRLS reweighting rounds, DSE Step-2
// re-evaluation rounds, and successive tracking frames all reuse the same
// plans via Rebind. An Engine is not safe for concurrent use.
type Engine struct {
	mod   *meas.Model
	jplan *meas.JacobianPlan
	gplan *sparse.GainPlan
	pool  *sparse.Pool

	// ordPlan caches one fill-reducing-ordered gain plan (ordKind names
	// its ordering), built lazily from the natural plan's pattern the first
	// time a solve asks for that ordering. gplan always stays the natural
	// plan: the Dense path and covariance assembly consume G unpermuted.
	ordPlan *sparse.GainPlan
	ordKind OrderingKind

	// bsrPlan caches the blocked-format gain plan: a gain plan whose baked
	// permutation interleaves the state into per-bus (θ, V) pairs (composed
	// with a bus-quotient fill-reducing ordering when requested, bsrOrd),
	// with the 2×2 BSR mirror attached. bsrPerm is the CG boundary
	// permutation — the interleave extended by one trailing −1 for the
	// padding variable the blocked layout appends (the reference bus has no
	// angle, so the padded dimension is even).
	bsrPlan *sparse.GainPlan
	bsrMat  *sparse.BSR
	bsrPerm []int
	bsrOrd  OrderingKind

	// Persistent numeric buffers (m = measurements, n = states).
	baseW, w, z, h, r, wr []float64 // length m
	rhs, dx, prevDx       []float64 // length n
	havePrevDx            bool
	work                  *sparse.CGWorkspace
	rhsScratch            []float64 // pooled-transpose partial accumulators

	pre     sparse.Preconditioner
	preKind PrecondKind
	preBSR  bool // cached preconditioner was built on the blocked layout
	havePre bool

	// ldl is the LDLᵀ factor of ldlOf's pattern. Its symbolic analysis is
	// plan-like: ColdStart, ResetReuse, Rebind, masks and a breakdown drop
	// or overwrite its numerics only, and the ordering pass never repeats.
	// pre holds it while the last refresh factored, and a Jacobi stand-in
	// (preKind still PrecondLDL) while the last refresh broke down.
	ldl   *sparse.LDLFactor
	ldlOf *sparse.CSR

	// reuse anchors the drift-gated numeric-reuse tier (Options.GainReuse):
	// the state and weights at the last full gain+preconditioner refresh,
	// the gain system refreshed there, and the resolved solve configuration
	// it is valid for. skipPre makes the next preconditioner lookup return
	// the cached numerics without an in-place refresh.
	reuse   gainReuse
	skipPre bool
	xTrial  []float64 // length n, lagged-gain guard trial iterate
	hValid  bool      // h/r already hold the next iterate's values (accepted trial)
}

// gainReuse is the numeric-reuse anchor carried across Gauss–Newton
// iterations and solves. valid flips false whenever G's values are
// rewritten outside the anchor bookkeeping (ReuseOff solves, SolveLinear,
// NormalizedResiduals) or the session starts a standalone run.
type gainReuse struct {
	valid   bool
	x       []float64 // length n, state at last refresh
	w       []float64 // length m, weights at last refresh
	gs      gainSystem
	format  FormatKind
	ord     OrderingKind
	precond PrecondKind
	freshCG int // CG iterations of the anchoring fresh solve (guard budget)

	// Adaptive-gate state (Options.AdaptiveGate): adapt scales the drift
	// gate (0 means uninitialized, i.e. ×1) and streak counts consecutive
	// clean lagged-gain accepts since the last widening or setback. Both
	// survive re-anchoring — the gate learns the signal's character, not a
	// single anchor's.
	adapt  float64
	streak int
}

// Adaptive-gate dynamics: after adaptStreakRuns consecutive clean lagged
// accepts (CG within slack of the fresh count) the gate doubles; any guard
// fallback halves it. The scale is clamped to [1/adaptGateSpan,
// adaptGateSpan] around the configured gate.
const (
	adaptGateSpan   = 8.0
	adaptStreakRuns = 4
)

// adaptScale returns the current gate multiplier (1 when uninitialized).
func (r *gainReuse) adaptScale() float64 {
	if r.adapt == 0 {
		return 1
	}
	return r.adapt
}

// adaptClean records a clean lagged-gain accept: after a full streak the
// gate widens ×2, capped at adaptGateSpan.
func (r *gainReuse) adaptClean() {
	r.streak++
	if r.streak < adaptStreakRuns {
		return
	}
	r.streak = 0
	if s := r.adaptScale() * 2; s <= adaptGateSpan {
		r.adapt = s
	} else {
		r.adapt = adaptGateSpan
	}
}

// adaptInflated records a lagged accept whose CG count inflated past the
// fresh solve's (still within the guard budget): the streak resets but the
// gate holds.
func (r *gainReuse) adaptInflated() { r.streak = 0 }

// adaptFallback records a guard fallback: the gate tightens ÷2, floored at
// 1/adaptGateSpan.
func (r *gainReuse) adaptFallback() {
	r.streak = 0
	if s := r.adaptScale() / 2; s >= 1/adaptGateSpan {
		r.adapt = s
	} else {
		r.adapt = 1 / adaptGateSpan
	}
}

// Lagged-gain guard budget: a lagged CG solve may spend up to
// reuseCGFactor× the anchoring fresh solve's iterations (plus slack for
// tiny counts) before the guard declares the stale operator unprofitable.
const (
	reuseCGFactor = 3
	reuseCGSlack  = 8
)

// gainSystem is the refreshed gain matrix a solve runs against: the plan
// (whose scalar G the Dense path and scalar preconditioners consume), the
// blocked mirror when the solve runs in BSR layout, and the CG boundary
// permutation (padded with −1 for the blocked layout's identity variable).
type gainSystem struct {
	gp   *sparse.GainPlan
	bsr  *sparse.BSR
	perm []int
}

// NewEngine builds the symbolic plans and buffers for the model. The cost
// is roughly one Jacobian assembly plus one gain assembly; it is amortized
// from the second Gauss–Newton iteration on.
func NewEngine(mod *meas.Model) *Engine {
	m, n := mod.NMeas(), mod.NState()
	e := &Engine{
		mod:    mod,
		jplan:  mod.NewJacobianPlan(),
		pool:   sparse.DefaultPool(),
		baseW:  mod.Weights(),
		w:      make([]float64, m),
		z:      make([]float64, m),
		h:      make([]float64, m),
		r:      make([]float64, m),
		wr:     make([]float64, m),
		rhs:    make([]float64, n),
		dx:     make([]float64, n),
		prevDx: make([]float64, n),
		work:   sparse.NewCGWorkspace(n),
		xTrial: make([]float64, n),
	}
	e.reuse.x = make([]float64, n)
	e.reuse.w = make([]float64, m)
	e.gplan = sparse.NewGainPlan(e.jplan.H)
	return e
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
	for i, m := range mod.Meas {
		e.baseW[i] = 1 / (m.Sigma * m.Sigma)
	}
	return nil
}

// MaskMeasurement zeroes measurement i's weight slot in place. The row
// stays in the Jacobian and gain skeletons — the symbolic plans are
// untouched, so no layout change and no rebuild — but a zero weight kills
// every contribution the row makes to G = HᵀWH, the right-hand side, and
// the objective, which is numerically equivalent to removing it (adding an
// exact 0.0 to a floating-point accumulation is an identity). Masks
// persist across solves on this engine until UnmaskAll; Rebind also resets
// them, since it recomputes the base weights from the new model's sigmas.
func (e *Engine) MaskMeasurement(i int) error {
	if i < 0 || i >= len(e.baseW) {
		return fmt.Errorf("wls: mask index %d outside [0,%d)", i, len(e.baseW))
	}
	e.baseW[i] = 0
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
	cgTol := opts.CGTol
	if cgTol <= 0 {
		cgTol = 1e-10
	}
	if mod.NMeas() < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements < %d states", ErrUnobservable, mod.NMeas(), mod.NState())
	}

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
	if opts.X0 != nil && opts.X0Gate > 0 {
		// Scaled-residual warm-start gate: keep X0 only if it explains the
		// current measurement values markedly better than the flat profile.
		flat := mod.FlatVec()
		if e.weightedSSR(x) > opts.X0Gate*e.weightedSSR(flat) {
			copy(x, flat)
		}
	}

	mode := resolveReuse(opts)
	gate := opts.ReuseGate
	if gate <= 0 {
		if mode == ReuseGain {
			gate = ReuseGainGateDefault
		} else {
			gate = ReuseGateDefault
		}
	}
	if mode == ReuseOff {
		// An unguarded solve rewrites G outside the anchor bookkeeping, so
		// any anchor a previous gated solve left behind is stale after it.
		e.reuse.valid = false
	}

	res := &Result{}
	e.havePrevDx = false
	e.hValid = false
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("wls: canceled at iteration %d: %w", iter, err)
		}
		if e.hValid {
			// An accepted lagged-gain trial already evaluated h/r at this
			// iterate (x was advanced by the exact dx the guard tried, so
			// the buffered values are bitwise those of a re-evaluation).
			e.hValid = false
		} else {
			e.jplan.EvalInto(e.h, x)
			sparse.Sub(e.r, e.z, e.h)
		}
		hj := e.jplan.Refresh(x)

		var dx []float64
		var err error
		if opts.Solver == QR {
			dx, err = solveQR(hj, e.w, e.r)
		} else {
			dx, err = e.gainStep(x, hj, opts, cgTol, mode, gate, res)
		}
		if err != nil {
			return nil, err
		}
		sparse.Axpy(1, dx, x)
		res.Iterations = iter + 1
		if sparse.NormInf(dx) < tol {
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

// SolveLinear performs the single weighted least-squares solve of the
// linear (PMU-only) estimation problem, reusing the engine's plans.
// Semantics match LinearPMUEstimate's solve.
func (e *Engine) SolveLinear(opts Options) (*Result, error) {
	// The linear solve rewrites G and the preconditioner outside the
	// drift-gate bookkeeping, so any reuse anchor is stale afterwards.
	e.reuse.valid = false
	mod := e.mod
	x := mod.FlatVec()
	copy(e.w, e.baseW)
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	e.jplan.EvalInto(e.h, x)
	sparse.Sub(e.r, e.z, e.h)
	hj := e.jplan.Refresh(x)

	res := &Result{Iterations: 1, Converged: true}
	var dx []float64
	var err error
	if opts.Solver == QR {
		dx, err = solveQR(hj, e.w, e.r)
	} else {
		cgTol := opts.CGTol
		if cgTol <= 0 {
			cgTol = 1e-12
		}
		gs, gerr := e.refreshGain(hj, opts)
		if gerr != nil {
			return nil, fmt.Errorf("wls: linear PMU solve: %w", gerr)
		}
		e.gainRHS(hj, opts)
		e.havePrevDx = false
		dx, res.CGIterations, err = e.solveGain(gs, opts, cgTol, res)
	}
	if err != nil {
		return nil, fmt.Errorf("wls: linear PMU solve: %w", err)
	}
	sparse.Axpy(1, dx, x)
	e.finish(res, x)
	return res, nil
}

// weightedSSR evaluates J(x) = Σ wᵢ·(zᵢ − hᵢ(x))² with the engine's current
// weights and measurement vector, reusing the h/r buffers.
func (e *Engine) weightedSSR(x []float64) float64 {
	e.jplan.EvalInto(e.h, x)
	sparse.Sub(e.r, e.z, e.h)
	var j float64
	for i, r := range e.r {
		j += e.w[i] * r * r
	}
	return j
}

// finish evaluates the final residuals and fills the caller-owned result
// slices (the engine's internal buffers never escape).
func (e *Engine) finish(res *Result, x []float64) {
	e.jplan.EvalInto(e.h, x)
	r := make([]float64, e.mod.NMeas())
	sparse.Sub(r, e.z, e.h)
	res.X = x
	res.State = e.mod.VecToState(x)
	res.Residuals = r
	for i := range r {
		res.ObjectiveJ += e.w[i] * r[i] * r[i]
	}
}

// resolveOrdering maps the user-facing Ordering knob to a concrete ordering
// for this solve. Only the PCG path reorders: the Dense solver and the
// covariance assembly read G in natural order, and QR never forms G.
func resolveOrdering(opts Options) OrderingKind {
	if opts.Solver != PCG {
		return OrderNatural
	}
	if opts.Ordering == OrderAuto {
		if opts.Precond == PrecondIC0 {
			return OrderRCM
		}
		return OrderNatural
	}
	return opts.Ordering
}

// gplanFor returns the gain plan for the requested ordering, building and
// caching the ordered plan on first use. The permutation is computed from
// the natural plan's gain pattern (one RCM/min-degree pass) and baked into
// a second scatter plan — pure symbolic work, repaid on every refresh.
func (e *Engine) gplanFor(kind OrderingKind) (*sparse.GainPlan, error) {
	switch kind {
	case OrderAuto, OrderNatural:
		return e.gplan, nil
	case OrderRCM, OrderMinDegree:
	default:
		return nil, fmt.Errorf("wls: unknown ordering %v", kind)
	}
	if e.ordPlan != nil && e.ordKind == kind {
		return e.ordPlan, nil
	}
	var perm []int
	if kind == OrderRCM {
		perm = sparse.RCM(e.gplan.G)
	} else {
		perm = sparse.MinDegree(e.gplan.G)
	}
	e.ordPlan = sparse.NewGainPlanOrdered(e.jplan.H, perm)
	e.ordKind = kind
	return e.ordPlan, nil
}

// resolveFormat maps the Format knob to a concrete gain layout for this
// solve. Only the PCG path has a blocked variant; the factorizations (LDLᵀ,
// IC(0)) are triangular sweeps over scalar storage and silently stay on CSR
// even under an explicit FormatBSR. FormatAuto engages the blocked layout for
// the block-friendly preconditioners on systems big enough that the
// parallel kernels run — on smaller systems the layout change buys nothing
// and Auto preserves the scalar path exactly.
func (e *Engine) resolveFormat(opts Options) (FormatKind, error) {
	if opts.Solver != PCG {
		return FormatCSR, nil
	}
	blockCapable := opts.Precond == PrecondJacobi || opts.Precond == PrecondBlockJacobi || opts.Precond == PrecondNone
	switch opts.Format {
	case FormatCSR:
		if opts.Precond == PrecondBlockJacobi {
			return FormatCSR, fmt.Errorf("wls: block-jacobi preconditioner requires the BSR gain format")
		}
		return FormatCSR, nil
	case FormatBSR:
		if !blockCapable {
			return FormatCSR, nil
		}
		return FormatBSR, nil
	}
	if opts.Precond == PrecondBlockJacobi {
		return FormatBSR, nil
	}
	if opts.Precond == PrecondJacobi && e.gplan.G.NNZ() >= sparse.ParallelNNZThreshold {
		return FormatBSR, nil
	}
	return FormatCSR, nil
}

// bsrSystem returns the blocked gain system for this solve, building and
// caching the interleaved plan on first use. The state is permuted into
// per-bus (θ, V) pairs (sparse.BusInterleave); an explicit RCM/min-degree
// request is honored on the bus quotient graph — buses are ordered, then
// expanded to variable pairs, so the 2×2 block grid survives the
// reordering. OrderAuto stays in natural bus order: the blocked
// preconditioners are permutation-invariant, so reordering would only add
// symbolic cost.
func (e *Engine) bsrSystem(opts Options) gainSystem {
	kind := OrderNatural
	if opts.Ordering == OrderRCM || opts.Ordering == OrderMinDegree {
		kind = opts.Ordering
	}
	if e.bsrPlan == nil || e.bsrOrd != kind {
		mod := e.mod
		nb := mod.Net.N()
		var busOrder []int
		if kind != OrderNatural {
			q := sparse.Quotient(e.gplan.G, mod.StateBus(), nb)
			if kind == OrderRCM {
				busOrder = sparse.RCM(q)
			} else {
				busOrder = sparse.MinDegree(q)
			}
		}
		perm := sparse.BusInterleave(mod.NAngles(), nb, mod.RefBus(), busOrder)
		e.bsrPlan = sparse.NewGainPlanOrdered(e.jplan.H, perm)
		bsr := e.bsrPlan.AttachBSR()
		cgPerm := make([]int, bsr.Rows)
		copy(cgPerm, perm)
		for i := len(perm); i < len(cgPerm); i++ {
			cgPerm[i] = -1
		}
		e.bsrMat, e.bsrPerm, e.bsrOrd = bsr, cgPerm, kind
	}
	return gainSystem{gp: e.bsrPlan, bsr: e.bsrMat, perm: e.bsrPerm}
}

// refreshGain recomputes G = HᵀWH in place through the gain plan of the
// resolved format and ordering, on the pool unless the caller forces
// serial execution. In BSR layout the refresh writes block storage
// directly — the scalar G of the blocked plan is never materialized.
func (e *Engine) refreshGain(hj *sparse.CSR, opts Options) (gainSystem, error) {
	format, err := e.resolveFormat(opts)
	if err != nil {
		return gainSystem{}, err
	}
	if format == FormatBSR {
		gs := e.bsrSystem(opts)
		if opts.Workers == 1 {
			gs.gp.RefreshBSR(hj, e.w)
		} else {
			gs.gp.RefreshPoolBSR(hj, e.w, e.pool)
		}
		return gs, nil
	}
	gp, err := e.gplanFor(resolveOrdering(opts))
	if err != nil {
		return gainSystem{}, err
	}
	if opts.Workers == 1 {
		gp.Refresh(hj, e.w)
	} else {
		gp.RefreshPool(hj, e.w, e.pool)
	}
	return gainSystem{gp: gp, perm: gp.Perm()}, nil
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

// resolveReuse maps the GainReuse knob to the tier this solve actually
// runs. Only the PCG path has lagged numerics to skip; ReuseAuto resolves
// to ReuseOff at this layer — callers that want a default-on tier (the
// session orchestrators, the tracker) resolve Auto before the solve.
func resolveReuse(opts Options) GainReuseKind {
	if opts.Solver != PCG {
		return ReuseOff
	}
	switch opts.GainReuse {
	case ReusePrecond, ReuseGain:
		return opts.GainReuse
	default:
		return ReuseOff
	}
}

// lagTier is the per-iteration reuse decision.
type lagTier int

const (
	lagNone    lagTier = iota // full refresh: gain and preconditioner
	lagPrecond                // fresh gain, lagged preconditioner numerics
	lagGain                   // lagged gain and preconditioner
)

// reuseTier gates the numeric reuse for one Gauss–Newton iteration at x:
// the anchor must be valid for the exact solve configuration this iteration
// resolves to (format, ordering, preconditioner — with the cached
// preconditioner instance still present), the weights must be bitwise
// unchanged, and the scaled state drift from the anchor must sit under the
// gate. Anything else falls back to a full refresh.
func (e *Engine) reuseTier(x []float64, opts Options, mode GainReuseKind, gate float64) lagTier {
	if !e.reuse.valid {
		return lagNone
	}
	format, err := e.resolveFormat(opts)
	if err != nil || format != e.reuse.format || opts.Ordering != e.reuse.ord || opts.Precond != e.reuse.precond {
		return lagNone
	}
	if opts.Precond != PrecondNone {
		if !e.havePre || e.preKind != opts.Precond || e.preBSR != (format == FormatBSR) {
			return lagNone
		}
	}
	if !sparse.EqualVec(e.w, e.reuse.w) {
		return lagNone
	}
	if sparse.ScaledDriftInf(x, e.reuse.x) > gate {
		return lagNone
	}
	if mode == ReuseGain {
		return lagGain
	}
	return lagPrecond
}

// noteRefresh anchors the reuse state after a fresh gain + preconditioner
// refresh whose solve succeeded at iterate x with cg inner iterations.
func (e *Engine) noteRefresh(x []float64, gs gainSystem, opts Options, cg int) {
	format, err := e.resolveFormat(opts)
	if err != nil {
		e.reuse.valid = false
		return
	}
	copy(e.reuse.x, x)
	copy(e.reuse.w, e.w)
	e.reuse.gs = gs
	e.reuse.format = format
	e.reuse.ord = opts.Ordering
	e.reuse.precond = opts.Precond
	e.reuse.freshCG = cg
	e.reuse.valid = true
}

// trialImproves is the lagged-gain residual-decrease guard: the lagged step
// dx is kept only if J(x+dx) does not exceed J(x). It consumes the
// caller's residual at x from the r buffer before weightedSSR overwrites
// h/r with the trial iterate's values; a fractional slack absorbs roundoff
// on converged iterates where J is flat.
func (e *Engine) trialImproves(x, dx []float64) bool {
	jCur := 0.0
	for i, r := range e.r {
		jCur += e.w[i] * r * r
	}
	copy(e.xTrial, x)
	sparse.Axpy(1, dx, e.xTrial)
	return e.weightedSSR(e.xTrial) <= jCur*(1+1e-12)
}

// gainStep produces one Gauss–Newton step for the iterate x: it decides
// the reuse tier for this iteration, refreshes only what that tier
// demands, solves G·Δx = HᵀW·r, and maintains the reuse anchor plus the
// result's refresh/skip counters. The returned slice aliases the engine's
// dx buffer, like solveGain's.
func (e *Engine) gainStep(x []float64, hj *sparse.CSR, opts Options, cgTol float64, mode GainReuseKind, gate float64, res *Result) ([]float64, error) {
	tier := lagNone
	if mode != ReuseOff {
		g := gate
		if opts.AdaptiveGate {
			g *= e.reuse.adaptScale()
		}
		tier = e.reuseTier(x, opts, mode, g)
	}
	if tier == lagGain {
		e.gainRHS(hj, opts)
		e.skipPre = true
		dx, cg, err := e.solveGain(e.reuse.gs, opts, cgTol, res)
		e.skipPre = false
		res.CGIterations += cg
		if err == nil && cg <= reuseCGFactor*e.reuse.freshCG+reuseCGSlack && e.trialImproves(x, dx) {
			res.GainSkips++
			res.PrecondSkips++
			e.hValid = true // the guard left h/r evaluated at x+dx
			if opts.AdaptiveGate {
				if cg <= e.reuse.freshCG+reuseCGSlack {
					e.reuse.adaptClean()
				} else {
					e.reuse.adaptInflated()
				}
			}
			return dx, nil
		}
		// Guard tripped: the stale operator stalled the descent, CG blew
		// its budget, or the solve failed outright. Refresh at the current
		// iterate and re-solve. e.rhs still holds HᵀW·r for x — the guard
		// only clobbers the h/r buffers — so only the gain scatter, the
		// preconditioner, and the CG solve repeat.
		res.ReuseFallbacks++
		if opts.AdaptiveGate {
			e.reuse.adaptFallback()
		}
		gs, gerr := e.refreshGain(hj, opts)
		if gerr != nil {
			e.reuse.valid = false
			return nil, gerr
		}
		dx, cg, err = e.solveGain(gs, opts, cgTol, res)
		res.CGIterations += cg
		res.GainRefreshes++
		if err != nil {
			e.reuse.valid = false
			return nil, err
		}
		e.noteRefresh(x, gs, opts, cg)
		return dx, nil
	}

	gs, gerr := e.refreshGain(hj, opts)
	if gerr != nil {
		return nil, gerr
	}
	e.gainRHS(hj, opts)
	e.skipPre = tier == lagPrecond
	dx, cg, err := e.solveGain(gs, opts, cgTol, res)
	e.skipPre = false
	res.CGIterations += cg
	res.GainRefreshes++
	if err != nil {
		e.reuse.valid = false
		return nil, err
	}
	if tier == lagPrecond {
		// The operator is fresh but the preconditioner numerics were kept:
		// the anchor stays at the state the preconditioner was refreshed
		// for, so the drift gate keeps measuring preconditioner staleness.
		res.PrecondSkips++
	} else if mode != ReuseOff {
		e.noteRefresh(x, gs, opts, cg)
	}
	return dx, nil
}

// solveGain solves G·Δx = rhs with the configured solver, reusing the
// preconditioner numerics, the CG workspace, and the previous Δx as a CG
// warm start. gp's G (and therefore the preconditioner built from it) may
// live in permuted space; rhs and the returned Δx are always in natural
// order — CG handles the boundary permutes. res takes the preconditioner
// breakdown count; the CG iterations are returned for the caller's guard.
func (e *Engine) solveGain(gs gainSystem, opts Options, cgTol float64, res *Result) ([]float64, int, error) {
	g := gs.gp.G
	switch opts.Solver {
	case Dense:
		x, err := sparse.SolveDense(g.ToDense(), e.rhs)
		if err != nil {
			if errors.Is(err, sparse.ErrSingular) {
				return nil, 0, ErrUnobservable
			}
			return nil, 0, err
		}
		return x, 0, nil
	case PCG:
		var op sparse.Operator = g
		var pre sparse.Preconditioner
		var err error
		if gs.bsr != nil {
			op = gs.bsr
			pre, err = e.preconditionerBSR(gs.bsr, opts.Precond)
		} else {
			pre, err = e.preconditioner(g, opts.Precond, res)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wls: preconditioner: %w", err)
		}
		cgOpts := sparse.CGOptions{Tol: cgTol, Precond: pre, Work: e.work, Perm: gs.perm}
		if opts.Workers > 0 {
			cgOpts.Workers = opts.Workers
		} else {
			cgOpts.Pool = e.pool
		}
		if e.havePrevDx {
			cgOpts.X0 = e.prevDx
		}
		cg, err := sparse.CG(op, e.rhs, cgOpts)
		if err != nil {
			if errors.Is(err, sparse.ErrNotSPD) {
				return nil, cg.Iterations, ErrUnobservable
			}
			return nil, cg.Iterations, err
		}
		// cg.X aliases the workspace and the next solve overwrites it; keep
		// a stable copy, which doubles as the next iteration's warm start.
		copy(e.dx, cg.X)
		copy(e.prevDx, e.dx)
		e.havePrevDx = true
		return e.dx, cg.Iterations, nil
	default:
		return nil, 0, fmt.Errorf("wls: unknown solver %v", opts.Solver)
	}
}

// preconditioner returns the preconditioner for G, refreshing the cached
// one's numerics in place when the kind is unchanged (G's pattern is fixed
// by the gain plan, so the symbolic setup never repeats). An LDLᵀ refresh
// that breaks down on a numerically singular G degrades to Jacobi for that
// refresh, counted in res.PrecondFallbacks: CG on a semidefinite but
// consistent system can still converge where a factor cannot exist, and
// where it cannot, CG is what reports the gain as not positive definite.
func (e *Engine) preconditioner(g *sparse.CSR, kind PrecondKind, res *Result) (sparse.Preconditioner, error) {
	if kind == PrecondNone {
		return sparse.IdentityPreconditioner{}, nil
	}
	cached := e.havePre && e.preKind == kind && !e.preBSR
	if cached && e.skipPre {
		// Drift-gated reuse: the cached numerics are close enough.
		return e.pre, nil
	}
	build := kind
	if kind == PrecondLDL {
		switch err := e.refactor(g); {
		case err == nil:
			e.pre, e.preKind, e.preBSR, e.havePre = e.ldl, kind, false, true
			return e.ldl, nil
		case !errors.Is(err, sparse.ErrNotSPD):
			e.havePre = false
			return nil, err
		}
		res.PrecondFallbacks++
		build, cached = PrecondJacobi, false // breakdowns are rare: the stand-in is built anew
	}
	if cached {
		if ref, ok := e.pre.(sparse.Refresher); ok {
			if err := ref.Refresh(g); err == nil {
				return e.pre, nil
			}
			// Refresh failure (pattern drift or factorization breakdown):
			// fall through and rebuild from scratch.
			e.havePre = false
		}
	}
	var pre sparse.Preconditioner
	var err error
	switch build {
	case PrecondJacobi:
		pre, err = sparse.NewJacobi(g)
	case PrecondIC0:
		pre, err = sparse.NewIC0(g)
	case PrecondBlockJacobi:
		return nil, fmt.Errorf("wls: block-jacobi preconditioner requires the BSR gain format")
	default:
		return nil, fmt.Errorf("wls: unknown preconditioner %v", kind)
	}
	if err != nil {
		e.havePre = false
		return nil, err
	}
	e.pre, e.preKind, e.preBSR, e.havePre = pre, kind, false, true
	return pre, nil
}

// refactor refreshes the LDLᵀ factor's numerics from g, running the symbolic
// analysis first if the engine has none for this gain matrix yet.
func (e *Engine) refactor(g *sparse.CSR) error {
	if e.ldl == nil || e.ldlOf != g {
		f, err := sparse.AnalyzeLDL(g)
		if err != nil {
			return err
		}
		e.ldl, e.ldlOf = f, g
	}
	return e.ldl.Refresh(g)
}

// preconditionerBSR is the blocked-layout counterpart of preconditioner:
// it refreshes the cached preconditioner through sparse.BSRRefresher when
// the kind is unchanged, and otherwise builds Jacobi or block-Jacobi from
// the blocked diagonal. The padding variable's unit diagonal passes its
// residual component through unchanged under either.
func (e *Engine) preconditionerBSR(a *sparse.BSR, kind PrecondKind) (sparse.Preconditioner, error) {
	if kind == PrecondNone {
		return sparse.IdentityPreconditioner{}, nil
	}
	if e.havePre && e.preKind == kind && e.preBSR {
		if e.skipPre {
			return e.pre, nil
		}
		if ref, ok := e.pre.(sparse.BSRRefresher); ok {
			if err := ref.RefreshBSR(a); err == nil {
				return e.pre, nil
			}
			e.havePre = false
		}
	}
	var pre sparse.Preconditioner
	var err error
	switch kind {
	case PrecondJacobi:
		pre, err = sparse.NewJacobiBSR(a)
	case PrecondBlockJacobi:
		pre, err = sparse.NewBlockJacobi(a)
	default:
		return nil, fmt.Errorf("wls: preconditioner %v does not support the BSR gain format", kind)
	}
	if err != nil {
		e.havePre = false
		return nil, err
	}
	e.pre, e.preKind, e.preBSR, e.havePre = pre, kind, true, true
	return pre, nil
}

// NormalizedResiduals computes rᴺ_i = |r_i| / √Ω_ii for a result produced
// by this engine, reusing the engine's Jacobian and gain plans for the
// covariance assembly. See the package-level NormalizedResiduals for the
// formulation.
func (e *Engine) NormalizedResiduals(res *Result) ([]float64, error) {
	// The covariance assembly rewrites the natural plan's G values outside
	// the drift-gate bookkeeping; drop any reuse anchor that may alias it.
	e.reuse.valid = false
	hj := e.jplan.Refresh(res.X)
	copy(e.w, e.baseW)
	g := e.gplan.RefreshPool(hj, e.w, e.pool)
	return normalizedResiduals(res, e.mod, hj, g, e.w)
}
