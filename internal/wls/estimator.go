// Package wls implements weighted-least-squares power-system state
// estimation (Abur & Expósito, "Power System State Estimation: Theory and
// Implementation"): the Gauss–Newton iteration on the normal equations
//
//	G(x)·Δx = Hᵀ(x)·W·(z − h(x)),   G = Hᵀ·W·H
//
// with the symmetric positive-definite gain matrix G solved by a complete
// sparse LDLᵀ factorization under its own fill-reducing ordering
// (sparse.LDLFactor), the one solver: one substitution per Gauss–Newton
// step, on a lagged gain too, because ReuseGain lags the factor with the
// gain it factors. The substitution is checked against a relative residual
// bound once per refactorization and refined on the same factor where it
// misses it. A gain too close to singular to factor takes a
// Levenberg–Marquardt step on G + μ·diag(G) instead (Result.PrecondFallbacks),
// and a solve whose last refresh needed one fails with ErrUnobservable,
// naming the bus. The package also has chi-square bad-data detection,
// largest-normalized-residual identification, and a numerical observability
// check.
package wls

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/meas"
	"repro/internal/powerflow"
)

// GainReuseKind selects whether the gain solve may run on lagged
// numerics. The engine anchors the state at which G = HᵀWH and its
// factor were last refreshed; under ReuseGain, while the scaled
// state drift from that anchor stays under ReuseGainGateDefault (and the
// weights are unchanged), an iteration skips both refreshes. The anchor
// survives across solves on the same engine, so steady tracking frames
// inherit the previous frame's numerics. Any layout change invalidates the
// anchor automatically (the session layer rebuilds the engine on
// ErrStaleSkeleton), and Engine.ResetReuse drops it explicitly.
type GainReuseKind int

// Gain-reuse tiers. ReuseGain, the zero value, runs a lagged Gauss–Newton
// iteration on stale G guarded by a residual-decrease test: if the lagged
// step fails to reduce J(x) or the solve errors, the engine refreshes at the
// current iterate and re-solves. A one-shot solve anchors on its own
// refreshes, so its step inside the gate — in practice the last — lags: it
// stops on the same ‖Δx‖∞ < Tol as exact Gauss–Newton and lands within Tol
// of it (DESIGN §10 has the contract and where it is tighter). ReuseOff is
// exact Gauss–Newton: a fresh gain and factor every iteration.
const (
	ReuseGain GainReuseKind = iota
	ReuseOff

	// ReusePrecond is ReuseOff — an exact gain and a fresh factor every
	// iteration, which is all the tier ever promised. The name stays only
	// because benchmark/workload.go still refers to it.
	ReusePrecond = ReuseOff
)

func (g GainReuseKind) String() string {
	switch g {
	case ReuseOff:
		return "off"
	case ReuseGain:
		return "gain"
	default:
		return fmt.Sprintf("GainReuseKind(%d)", int(g))
	}
}

// ReuseGainGateDefault is the scaled state-drift gate of ReuseGain: per-unit
// voltage and radian angle moves under 0.8 % keep the lagged numerics.
// Lagging G degrades the Gauss–Newton contraction in proportion to the
// drift, so past some gate the extra iterations cost more than the skipped
// refreshes save; where that happens depends on what a lagged iteration
// costs. Under the LDLᵀ default the factor is lagged with the gain, so a
// lagged step is one substitution, and the measured optimum on tracked
// IEEE-118 and 1 416-bus frames is 8e-3 (DESIGN §10 has the sweeps). A
// topology event or load step blows through it and forces a refresh on the
// first iteration.
const ReuseGainGateDefault = 8e-3

// Options controls the Gauss–Newton WLS iteration.
type Options struct {
	// Tol is the convergence tolerance on ‖Δx‖∞. Zero selects TolDefault.
	Tol float64
	// MaxIter caps Gauss–Newton iterations. Zero selects 25.
	MaxIter int
	// Workers 1 runs every kernel of the solve serially: G = HᵀWH and the
	// factor's analysis and refresh. Any other value runs them on the
	// shared worker pool.
	Workers int
	// X0 is an optional warm-start state vector; nil selects flat start.
	X0 []float64
	// GainReuse selects whether the gain solve may run on lagged gain and
	// factor numerics (default ReuseGain; ReuseOff is exact
	// Gauss–Newton). See GainReuseKind.
	GainReuse GainReuseKind
	// X0Gate, when positive, guards the warm start behind a scaled-residual
	// test: X0 is kept only while its weighted residual J(X0) stays within
	// X0Gate·J(flat) of the flat start's, and otherwise the solve quietly
	// falls back to the flat profile. Zero accepts X0 unconditionally (the
	// historical behavior); WarmStartGate is the standard choice for
	// cross-round and cross-frame warm starts. Ignored when X0 is nil.
	X0Gate float64
}

// TolDefault is the convergence tolerance a zero Options.Tol selects.
const TolDefault = 1e-6

// maxIterDefault is the Gauss–Newton iteration cap a zero Options.MaxIter
// selects.
const maxIterDefault = 25

// limits returns the options' convergence tolerance and iteration cap, with
// zero values resolved to their defaults.
func (o Options) limits() (tol float64, maxIter int) {
	tol, maxIter = o.Tol, o.MaxIter
	if tol <= 0 {
		tol = TolDefault
	}
	if maxIter <= 0 {
		maxIter = maxIterDefault
	}
	return tol, maxIter
}

// WarmStartGate is the standard Options.X0Gate for warm starts carried
// across DSE rounds or tracking frames: the previous solution is kept only
// if it fits the new measurement values at least ten times better than the
// flat profile, so a topology event or load step that invalidates the carry
// never drags Gauss–Newton through a bad basin.
const WarmStartGate = 0.1

// Result reports a WLS estimation run. The engine's solves carve X,
// State.Vm, State.Va and Residuals from one allocation, as slices whose
// capacity ends at their length: appending to one copies it, and none
// writes into another.
type Result struct {
	// State is the estimated operating point.
	State powerflow.State
	// X is the raw state vector (model layout).
	X []float64
	// Converged reports whether ‖Δx‖∞ reached tolerance.
	Converged bool
	// ObjectiveJ is the weighted sum of squared residuals J(x̂).
	ObjectiveJ float64
	// Residuals are z − h(x̂) per measurement.
	Residuals []float64
	Counters
}

// Counters is the work one or more Gauss–Newton solves did. A Result holds
// its own solve's; core.StepStats and contingency.SweepStats embed it and
// sum their solves' with Add.
type Counters struct {
	// Iterations is the Gauss–Newton iteration count.
	Iterations int
	// CGIterations is always 0: the estimator runs no CG. The field stays
	// only because benchmark/workload.go still reads it.
	CGIterations int
	// GainRefreshes and GainSkips split the gain-solve iterations by
	// whether G = HᵀWH was recomputed or the drift-gated reuse tier kept the
	// lagged values (GainSkips stays zero under ReuseOff).
	GainRefreshes int
	GainSkips     int
	// PrecondSkips always equals GainSkips: the preconditioner is lagged
	// with the gain and never alone. The field stays only because
	// benchmark/workload.go still reads it.
	PrecondSkips int
	// ReuseFallbacks counts lagged-gain iterations rolled back by the
	// residual-decrease guard (the iteration then refreshed and re-solved).
	ReuseFallbacks int
	// PrecondFallbacks counts factor refreshes that broke down on a
	// numerically singular gain and took a damped step on G + μ·diag(G)
	// instead.
	PrecondFallbacks int
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Iterations += o.Iterations
	c.CGIterations += o.CGIterations
	c.GainRefreshes += o.GainRefreshes
	c.GainSkips += o.GainSkips
	c.PrecondSkips += o.PrecondSkips
	c.ReuseFallbacks += o.ReuseFallbacks
	c.PrecondFallbacks += o.PrecondFallbacks
}

// ErrNotConverged reports that Gauss–Newton hit its iteration cap.
var ErrNotConverged = errors.New("wls: estimator did not converge")

// ErrUnobservable reports a rank-deficient (unobservable) measurement set:
// a state no unmasked measurement touches, or a gain singular at the
// estimate, where the error wraps the factor's *sparse.PivotError and names
// its bus.
var ErrUnobservable = errors.New("wls: network unobservable with given measurements")

// Estimate runs Gauss–Newton WLS estimation on the measurement model. It
// is the uncancellable convenience form of EstimateCtx.
func Estimate(mod *meas.Model, opts Options) (*Result, error) {
	return EstimateCtx(context.Background(), mod, opts)
}
