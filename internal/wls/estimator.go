// Package wls implements weighted-least-squares power-system state
// estimation (Abur & Expósito, "Power System State Estimation: Theory and
// Implementation"): the Gauss–Newton iteration on the normal equations
//
//	G(x)·Δx = Hᵀ(x)·W·(z − h(x)),   G = Hᵀ·W·H
//
// with the symmetric positive-definite gain matrix G solved by the parallel
// preconditioned conjugate-gradient method of the paper's HPC solution [2]
// — by default preconditioned with a complete sparse factor of G itself —
// plus chi-square bad-data detection, largest-normalized-residual
// identification, and a numerical observability check.
package wls

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/meas"
	"repro/internal/powerflow"
)

// SolverKind selects how the gain-matrix system is solved.
type SolverKind int

// Gain-matrix solvers. PCG is the paper's parallel iterative solver; Dense
// is a reference LU path used for validation and very small systems; QR
// solves the least-squares problem by Givens orthogonalization without
// ever forming the gain matrix (conditioning κ(H) instead of κ(H)²).
const (
	PCG SolverKind = iota
	Dense
	QR
)

// PrecondKind selects the PCG preconditioner.
type PrecondKind int

// Preconditioner choices for the PCG gain solve. PrecondLDL, the default,
// is a complete sparse LDLᵀ factor of the gain matrix under its own
// fill-reducing ordering (sparse.LDLFactor): CG converges in one iteration
// on a freshly factored gain and in a handful on a factor the reuse tiers
// lag. A gain too close to singular to factor runs that refresh on the
// Jacobi preconditioner instead (Result.PrecondFallbacks). PrecondJacobi is
// the diagonal preconditioner of the paper's solver [2].
const (
	PrecondLDL PrecondKind = iota
	PrecondJacobi
	PrecondNone
	PrecondIC0
	// PrecondBlockJacobi inverts the 2×2 per-bus (θ, V) diagonal blocks of
	// the gain matrix exactly. It requires the blocked gain layout and
	// therefore implies FormatBSR (an explicit FormatCSR is rejected).
	PrecondBlockJacobi
)

func (p PrecondKind) String() string {
	switch p {
	case PrecondLDL:
		return "ldl"
	case PrecondJacobi:
		return "jacobi"
	case PrecondNone:
		return "none"
	case PrecondIC0:
		return "ic0"
	case PrecondBlockJacobi:
		return "block-jacobi"
	default:
		return fmt.Sprintf("PrecondKind(%d)", int(p))
	}
}

// ParsePrecond maps a preconditioner name as PrecondKind.String prints it
// (or the short "bjacobi") back to its kind, for command-line flags.
func ParsePrecond(name string) (PrecondKind, error) {
	if name == "bjacobi" {
		return PrecondBlockJacobi, nil
	}
	for p := PrecondLDL; p <= PrecondBlockJacobi; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wls: unknown preconditioner %q (want ldl, jacobi, none, ic0 or bjacobi)", name)
}

// OrderingKind selects the fill-reducing ordering applied to the gain
// matrix before the PCG solve. The permutation is symbolic work: it is
// computed once per sparsity pattern and baked into the gain plan's scatter
// map, so choosing an ordering costs nothing per iteration.
type OrderingKind int

// Gain-matrix orderings. OrderAuto picks RCM when the preconditioner is the
// zero-fill incomplete factorization IC(0) — where bandwidth reduction
// tightens the preconditioner — and natural ordering otherwise: Jacobi and
// unpreconditioned CG are permutation-invariant, and the LDLᵀ factor
// carries its own fill-reducing permutation, so reordering the gain plan
// would only add boundary work and a second symbolic build.
const (
	OrderAuto OrderingKind = iota
	OrderNatural
	OrderRCM
	OrderMinDegree
)

func (o OrderingKind) String() string {
	switch o {
	case OrderAuto:
		return "auto"
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderMinDegree:
		return "mindeg"
	default:
		return fmt.Sprintf("OrderingKind(%d)", int(o))
	}
}

// FormatKind selects the storage layout of the gain matrix for the PCG
// solve. The layout is a pure performance knob: both formats assemble the
// same contributions in the same order, so switching formats never changes
// the estimate beyond the roundoff already inherent in reordering.
type FormatKind int

// Gain-matrix layouts. FormatBSR interleaves the state into per-bus
// (θᵢ, Vᵢ) pairs and stores the gain matrix as dense 2×2 blocks — half the
// index traffic per value and unrolled block mat-vecs. FormatAuto picks
// BSR for the block-friendly preconditioners (Jacobi, block-Jacobi) on
// systems large enough for the parallel kernels to engage, and scalar CSR
// otherwise; the factorizations (LDLᵀ, IC(0)) always run on scalar CSR.
// Dense and QR solvers ignore the knob.
const (
	FormatAuto FormatKind = iota
	FormatCSR
	FormatBSR
)

func (f FormatKind) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatCSR:
		return "csr"
	case FormatBSR:
		return "bsr"
	default:
		return fmt.Sprintf("FormatKind(%d)", int(f))
	}
}

// GainReuseKind selects the drift-gated numeric-reuse tier of the PCG gain
// solve. The engine anchors the state at which G = HᵀWH and the
// preconditioner were last refreshed; while the scaled state drift from
// that anchor stays under Options.ReuseGate (and the weights, format,
// ordering, and preconditioner are unchanged), the selected tier skips the
// corresponding numeric refresh work. The anchor survives across solves on
// the same engine, so steady tracking frames inherit the previous frame's
// numerics. Any layout change invalidates the anchor automatically (the
// session layer rebuilds the engine on ErrStaleSkeleton), and
// Engine.ResetReuse drops it explicitly.
type GainReuseKind int

// Gain-reuse tiers. ReusePrecond keeps the gain operator exact and only
// lags the preconditioner numerics — CG converges to the same solution, so
// results stay pinned to the always-refresh path to solver tolerance.
// ReuseGain additionally skips the gain refresh, running a lagged
// Gauss–Newton iteration on stale G guarded by a residual-decrease test: if
// the lagged step fails to reduce J(x), CG blows past its fresh-solve
// iteration budget, or the solve errors, the engine refreshes at the
// current iterate and re-solves. ReuseAuto defers the choice to the calling
// layer — the session-backed DSE orchestrators resolve it to ReusePrecond
// and the Tracker to ReuseGain, while a bare Engine treats it as ReuseOff.
const (
	ReuseAuto GainReuseKind = iota
	ReuseOff
	ReusePrecond
	ReuseGain
)

func (g GainReuseKind) String() string {
	switch g {
	case ReuseAuto:
		return "auto"
	case ReuseOff:
		return "off"
	case ReusePrecond:
		return "precond"
	case ReuseGain:
		return "gain"
	default:
		return fmt.Sprintf("GainReuseKind(%d)", int(g))
	}
}

// ReuseGateDefault is the scaled state-drift gate used when
// Options.ReuseGate is zero and the tier only lags the preconditioner
// (ReusePrecond): per-unit voltage and radian angle moves under 1% keep
// the lagged numerics. The preconditioner only steers CG, so a loose gate
// is safe. A topology event or load step blows through it and forces a
// refresh on the first iteration.
const ReuseGateDefault = 0.01

// ReuseGainGateDefault is the default drift gate for the lagged-gain tier
// (ReuseGain). Lagging G itself degrades the Gauss–Newton contraction in
// proportion to the drift — at 1% the extra iterations cost more than the
// skipped refreshes save — so the gain tier re-anchors an order of
// magnitude earlier. On steady IEEE-118 tracking this keeps the iteration
// count within 1% of always-refresh while still skipping ~80% of gain
// refreshes.
const ReuseGainGateDefault = 1e-3

// Options controls the Gauss–Newton WLS iteration.
type Options struct {
	// Tol is the convergence tolerance on ‖Δx‖∞. Zero selects 1e-6.
	Tol float64
	// MaxIter caps Gauss–Newton iterations. Zero selects 25.
	MaxIter int
	// Solver selects the gain-matrix solver (default PCG).
	Solver SolverKind
	// Precond selects the PCG preconditioner (default PrecondLDL).
	Precond PrecondKind
	// Ordering selects the fill-reducing gain-matrix ordering for the PCG
	// solve (default OrderAuto: RCM for IC(0), natural otherwise).
	// Under FormatBSR the ordering acts on the bus quotient graph — buses
	// are ordered, then expanded to (θ, V) pairs. Ignored by the Dense and
	// QR solvers.
	Ordering OrderingKind
	// Format selects the gain-matrix storage layout for the PCG solve
	// (default FormatAuto). See FormatKind.
	Format FormatKind
	// CGTol is the inner CG relative tolerance. Zero selects 1e-10.
	CGTol float64
	// Workers is the goroutine count for parallel mat-vec inside PCG.
	Workers int
	// X0 is an optional warm-start state vector; nil selects flat start.
	X0 []float64
	// GainReuse selects the drift-gated numeric-reuse tier for the PCG gain
	// solve (default ReuseAuto, which a bare engine treats as ReuseOff; the
	// session layer resolves it to ReusePrecond and the Tracker to
	// ReuseGain). See GainReuseKind. Non-PCG solvers ignore the knob.
	GainReuse GainReuseKind
	// ReuseGate overrides the scaled state-drift gate for GainReuse. Zero
	// selects the tier default: ReuseGateDefault for ReusePrecond,
	// ReuseGainGateDefault for ReuseGain.
	ReuseGate float64
	// AdaptiveGate, when true, scales the reuse drift gate from the
	// lagged-gain guard's observed outcomes: four consecutive clean lagged
	// accepts (inner CG within slack of the anchoring fresh solve) double
	// the gate, any guard fallback halves it, clamped to [gate/8, gate×8].
	// Quiescent tracking signals thus widen the gate and skip more
	// refreshes; jittery signals tighten it and re-anchor early. The learned
	// scale persists across solves and anchors on the same engine. The guard
	// semantics are unchanged, so estimates stay pinned to the fixed-gate
	// path exactly as ReuseGain already guarantees.
	AdaptiveGate bool
	// X0Gate, when positive, guards the warm start behind a scaled-residual
	// test: X0 is kept only while its weighted residual J(X0) stays within
	// X0Gate·J(flat) of the flat start's, and otherwise the solve quietly
	// falls back to the flat profile — the Gauss–Newton analogue of the CG
	// warm-start gate. Zero accepts X0 unconditionally (the historical
	// behavior); WarmStartGate is the standard choice for cross-round and
	// cross-frame warm starts. Ignored when X0 is nil.
	X0Gate float64
}

// WarmStartGate is the standard Options.X0Gate for warm starts carried
// across DSE rounds or tracking frames: the previous solution is kept only
// if it fits the new measurement values at least ten times better than the
// flat profile, so a topology event or load step that invalidates the carry
// never drags Gauss–Newton through a bad basin.
const WarmStartGate = 0.1

// Result reports a WLS estimation run.
type Result struct {
	// State is the estimated operating point.
	State powerflow.State
	// X is the raw state vector (model layout).
	X []float64
	// Iterations is the Gauss–Newton iteration count.
	Iterations int
	// Converged reports whether ‖Δx‖∞ reached tolerance.
	Converged bool
	// ObjectiveJ is the weighted sum of squared residuals J(x̂).
	ObjectiveJ float64
	// Residuals are z − h(x̂) per measurement.
	Residuals []float64
	// CGIterations is the cumulative inner CG iteration count (PCG solver).
	CGIterations int
	// GainRefreshes and GainSkips split the gain-solve iterations by
	// whether G = HᵀWH was recomputed or the drift-gated reuse tier kept the
	// lagged values (GainSkips stays zero below ReuseGain).
	GainRefreshes int
	GainSkips     int
	// PrecondSkips counts iterations that ran CG on lagged preconditioner
	// numerics (ReusePrecond and above).
	PrecondSkips int
	// ReuseFallbacks counts lagged-gain iterations rolled back by the
	// residual-decrease guard (the iteration then refreshed and re-solved).
	ReuseFallbacks int
	// PrecondFallbacks counts preconditioner refreshes whose LDLᵀ
	// factorization broke down on a numerically singular gain and that ran
	// on the Jacobi preconditioner instead.
	PrecondFallbacks int
}

// ErrNotConverged reports that Gauss–Newton hit its iteration cap.
var ErrNotConverged = errors.New("wls: estimator did not converge")

// ErrUnobservable reports a rank-deficient (unobservable) measurement set.
var ErrUnobservable = errors.New("wls: network unobservable with given measurements")

// Estimate runs Gauss–Newton WLS estimation on the measurement model. It
// is the uncancellable convenience form of EstimateCtx.
func Estimate(mod *meas.Model, opts Options) (*Result, error) {
	return EstimateCtx(context.Background(), mod, opts)
}

// EstimateCtx runs Gauss–Newton WLS estimation on the measurement model.
// Cancellation is checked at the top of every Gauss–Newton iteration, so
// an expired or canceled context aborts the solve with ctx.Err() instead
// of finishing the current estimation.
func EstimateCtx(ctx context.Context, mod *meas.Model, opts Options) (*Result, error) {
	if opts.X0 != nil && len(opts.X0) != mod.NState() {
		return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), mod.NState())
	}
	return estimateWeighted(ctx, mod, opts, nil)
}
