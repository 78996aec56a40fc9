package wls

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// primeGainSystem leaves a fresh engine as a Gauss–Newton iteration at the
// flat start finds it just before the gain solve: G refreshed, rhs = HᵀW·r.
func primeGainSystem(e *Engine, opts Options) {
	x := e.mod.FlatVec()
	copy(e.w, e.baseW)
	for i, m := range e.mod.Meas {
		e.z[i] = m.Value
	}
	e.evalAt(x, true)
	e.refreshGain(e.jplan.Refresh(x), opts)
}

// TestFactorSolvePolishedWhenCheckFails drives the branch no healthy gain
// reaches: a factor that does not solve G to the tolerance. The factor is
// refreshed from a copy of G scaled by 1 + 1e-3, so its substitution leaves
// a 1e-3 relative residual; the checked solve must notice, refine Δx on
// that factor and return the dense solution of the true G, passing the
// residual check it was refined for.
func TestFactorSolvePolishedWhenCheckFails(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	e := NewEngine(mod)
	primeGainSystem(e, Options{})
	g := e.gplan.G
	want, err := sparse.SolveDense(g.ToDense(), e.rhs)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(dx []float64) float64 {
		d := make([]float64, len(dx))
		sparse.Sub(d, dx, want)
		return sparse.NormInf(d) / sparse.NormInf(want)
	}

	if err := e.refactor(g, nil); err != nil {
		t.Fatal(err)
	}
	dx, err := e.solveRefined(solveTol)
	if err != nil || relErr(dx) > 1e-9 {
		t.Fatalf("matched factor: err %v, relative error %.3g", err, relErr(dx))
	}

	off := g.Clone()
	off.Scale(1 + 1e-3)
	if err := e.refactor(off, nil); err != nil {
		t.Fatal(err)
	}
	if dx := e.solveLagged(); relErr(dx) < 1e-4 {
		t.Fatalf("unchecked solve on the scaled factor: relative error %.3g (want the bare 1e-3-off substitution)", relErr(dx))
	}
	dx, err = e.solveRefined(solveTol)
	if err != nil {
		t.Fatal(err)
	}
	if rel := relErr(dx); rel > 1e-9 {
		t.Errorf("refined Δx is %.3g off the dense solution of the true G", rel)
	}
	if !e.residualWithin(g, solveTol) {
		t.Error("refined Δx fails the residual check it was refined for")
	}

	// A factor too far off for maxRefinements steps fails the solve.
	off.Scale(1.5)
	if err := e.refactor(off, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.solveRefined(solveTol); err == nil {
		t.Error("a factor of 1.5·G passed the residual check within the refinement bound")
	}
}

// checkResiduals fails unless res.Residuals and res.ObjectiveJ are bitwise
// z − h(res.X) and its weighted sum, evaluated afresh through the model.
func checkResiduals(t *testing.T, name string, mod *meas.Model, res *Result) {
	t.Helper()
	h := mod.Eval(res.X)
	w := mod.Weights()
	var j float64
	for i, m := range mod.Meas {
		r := m.Value - h[i]
		if math.Float64bits(res.Residuals[i]) != math.Float64bits(r) {
			t.Fatalf("%s: residual %d = %.17g, z − h(x̂) = %.17g", name, i, res.Residuals[i], r)
		}
		j += w[i] * r * r
	}
	if math.Float64bits(res.ObjectiveJ) != math.Float64bits(j) {
		t.Fatalf("%s: J = %.17g, Σ w·r² at x̂ = %.17g", name, res.ObjectiveJ, j)
	}
}

// sameSolve fails unless two results are the same Gauss–Newton run, bit for
// bit: what skipping a repeated h(x) evaluation must leave untouched.
func sameSolve(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.GainSkips != want.GainSkips || got.ReuseFallbacks != want.ReuseFallbacks {
		t.Fatalf("%s: %d iterations (%d lagged, %d fallbacks), reference %d (%d, %d)", name,
			got.Iterations, got.GainSkips, got.ReuseFallbacks, want.Iterations, want.GainSkips, want.ReuseFallbacks)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] = %.17g, reference %.17g", name, i, got.X[i], want.X[i])
		}
	}
}

// trackedEngine returns an engine that solved frame one of IEEE-118 cold
// under ReuseGain and whose model now carries frame two's values, with the
// options to continue from frame one's solution: the next Estimate starts on
// the anchor, so it lags from its first iteration and takes several.
func trackedEngine(t *testing.T) (*Engine, Options) {
	t.Helper()
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	eng := NewEngine(mod)
	opts := Options{GainReuse: ReuseGain}
	cold, err := eng.Estimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.UpdateValues(engineTestModel(t, grid.Case118, 0.01, 8).Meas); err != nil {
		t.Fatal(err)
	}
	opts.X0 = cold.X
	return eng, opts
}

// TestResultResidualsAreThoseOfTheReturnedState: the solve evaluates h once
// per distinct iterate — finish takes the residuals an accepted lagged trial
// left behind, a kept warm start enters the loop on the gate's evaluation —
// and on every path the result's residuals and objective are still bitwise
// those of the state it returns, and the run the same as without the carry.
func TestResultResidualsAreThoseOfTheReturnedState(t *testing.T) {
	t.Run("lagged accept", func(t *testing.T) {
		eng, opts := trackedEngine(t)
		res, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 2 || res.GainSkips != res.Iterations {
			t.Fatalf("%d iterations, %d lagged (want several, all lagged, so the last step is an accepted trial)", res.Iterations, res.GainSkips)
		}
		if eng.hValid {
			t.Error("finish left the h/r carry set")
		}
		checkResiduals(t, "lagged accept", eng.mod, res)
	})

	t.Run("guard fallback", func(t *testing.T) {
		// A lagged factor of G/4 quadruples the step: J rises, the guard
		// rolls the trial back — h/r then hold the rejected iterate's values.
		for _, maxIter := range []int{1, 0} { // the fallback as the last step, and mid-solve
			eng, opts := trackedEngine(t)
			off := eng.gplan.G.Clone()
			off.Scale(0.25)
			if err := eng.refactor(off, nil); err != nil {
				t.Fatal(err)
			}
			opts.MaxIter = maxIter
			res, err := eng.Estimate(opts)
			if maxIter == 1 && !errors.Is(err, ErrNotConverged) || maxIter == 0 && err != nil {
				t.Fatalf("MaxIter %d: %v", maxIter, err)
			}
			if res.ReuseFallbacks == 0 {
				t.Fatalf("MaxIter %d: the overshooting lagged step was kept", maxIter)
			}
			checkResiduals(t, "guard fallback", eng.mod, res)
		}
	})

	t.Run("X0Gate kept", func(t *testing.T) {
		eng, opts := trackedEngine(t)
		want, err := eng.Estimate(opts) // ungated: iteration 0 evaluates X0 itself
		if err != nil {
			t.Fatal(err)
		}
		eng, opts = trackedEngine(t)
		opts.X0Gate = WarmStartGate
		got, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, "X0Gate kept", got, want)
		checkResiduals(t, "X0Gate kept", eng.mod, got)
	})

	t.Run("X0Gate rejected", func(t *testing.T) {
		mod := engineTestModel(t, grid.Case118, 0.01, 7)
		want, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		far := mod.FlatVec()
		for i := range far {
			far[i] += 0.4 * math.Sin(float64(i))
		}
		got, err := Estimate(mod, Options{X0: far, X0Gate: WarmStartGate})
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, "X0Gate rejected", got, want)
		checkResiduals(t, "X0Gate rejected", mod, got)
	})
}

// cancelAfter is a context whose Err turns to Canceled after a number of
// nil answers, to stop a solve between two chosen iterations.
type cancelAfter struct {
	context.Context
	calls int
}

func (c *cancelAfter) Err() error {
	if c.calls > 0 {
		c.calls--
		return nil
	}
	return context.Canceled
}

// TestSolveLinearAfterLaggedEstimate: the h/r carry belongs to one Estimate.
// A SolveLinear on the same engine — after a lagged Estimate that finished,
// and after one canceled right behind an accepted trial, carry still set —
// returns the residuals of its own solution, and the solution a fresh
// engine's SolveLinear returns.
func TestSolveLinearAfterLaggedEstimate(t *testing.T) {
	for _, canceled := range []bool{false, true} {
		eng, opts := trackedEngine(t)
		if canceled {
			_, err := eng.EstimateCtx(&cancelAfter{Context: context.Background(), calls: 1}, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if !eng.hValid {
				t.Fatal("the canceled Estimate did not stop behind an accepted lagged trial")
			}
		} else if _, err := eng.Estimate(opts); err != nil {
			t.Fatal(err)
		}
		got, err := eng.SolveLinear(Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(eng.mod).SolveLinear(Options{})
		if err != nil {
			t.Fatal(err)
		}
		name := map[bool]string{false: "after a finished Estimate", true: "after a canceled Estimate"}[canceled]
		sameSolve(t, name, got, want)
		checkResiduals(t, name, eng.mod, got)
	}
}
