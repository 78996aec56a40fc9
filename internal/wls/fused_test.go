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

// unfusedRHS is the right-hand side and objective of the normal equations at
// x the way a refreshing step forms them — h, then H written out, then the
// serial transpose product — on a plan of its own and the engine's weights
// and measured values.
func unfusedRHS(e *Engine, x []float64) (rhs []float64, j float64) {
	m := e.mod.NMeas()
	pl := e.mod.NewJacobianPlan()
	h, r, wr := make([]float64, m), make([]float64, m), make([]float64, m)
	pl.EvalInto(h, x)
	sparse.Sub(r, e.z, h)
	rhs = make([]float64, e.mod.NState())
	sparse.GainRHSInto(rhs, pl.Refresh(x), e.w, r, wr)
	for i := range r {
		j += e.w[i] * r[i] * r[i]
	}
	return rhs, j
}

func requireCarryAt(t *testing.T, name string, e *Engine, x []float64) {
	t.Helper()
	if !e.rhsValid {
		t.Fatalf("%s: the engine carries no right-hand side", name)
	}
	rhs, j := unfusedRHS(e, x)
	if math.Float64bits(e.jx) != math.Float64bits(j) {
		t.Fatalf("%s: carried J = %.17g, un-fused %.17g", name, e.jx, j)
	}
	for i := range rhs {
		if math.Float64bits(e.rhs[i]) != math.Float64bits(rhs[i]) {
			t.Fatalf("%s: rhs[%d] = %.17g, un-fused %.17g", name, i, e.rhs[i], rhs[i])
		}
	}
}

// TestLaggedRHSMatchesUnfused stops a fully lagged solve behind each of its
// iterates in turn — behind the warm-start gate for the first, at an
// iteration cap for the rest — and finds the right-hand side and J the fused
// pass left there bit for bit those of EvalInto + Refresh + GainRHSInto.
func TestLaggedRHSMatchesUnfused(t *testing.T) {
	// The subtest names the gain solve the body runs on: the LDLᵀ factor.
	t.Run("ldl", func(t *testing.T) {
		eng, opts := trackedEngine(t)
		opts.X0Gate = WarmStartGate
		if _, err := eng.EstimateCtx(&cancelAfter{Context: context.Background()}, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		requireCarryAt(t, "behind the gate", eng, opts.X0)

		for k := 1; ; k++ {
			eng, opts := trackedEngine(t)
			opts.MaxIter = k
			res, err := eng.Estimate(opts)
			if res == nil || res.GainSkips != res.Iterations {
				t.Fatalf("MaxIter %d: %v, result %+v (want every step lagged)", k, err, res)
			}
			if res.Converged {
				if k < 2 {
					t.Fatal("converged in one step: no iterate a trial's fused pass produced was checked")
				}
				if eng.rhsValid {
					t.Fatal("a converged step ran the fused pass; it has no next iteration to feed")
				}
				break
			}
			requireCarryAt(t, "iteration cap", eng, res.X)
		}
	})
}

// TestRejectedTrialRefreshesAtIterate: a lagged factor of G/4 quadruples the
// first step and the guard rolls it back. The refresh that follows must
// solve for the right-hand side of the iterate, which the rejected trial's
// fused pass must not have touched — so the step is bit for bit the exact
// Gauss–Newton step a ReuseOff solve takes from the same start.
func TestRejectedTrialRefreshesAtIterate(t *testing.T) {
	eng, opts := trackedEngine(t)
	off := eng.gplan.G.Clone()
	off.Scale(0.25)
	if err := eng.refactor(off, nil); err != nil {
		t.Fatal(err)
	}
	opts.MaxIter = 1
	got, err := eng.Estimate(opts)
	if !errors.Is(err, ErrNotConverged) || got.ReuseFallbacks != 1 || got.GainRefreshes != 1 {
		t.Fatalf("%v, result %+v (want one rejected trial, one refresh)", err, got)
	}
	rhs, _ := unfusedRHS(eng, opts.X0)
	for i := range rhs {
		if math.Float64bits(eng.rhs[i]) != math.Float64bits(rhs[i]) {
			t.Fatalf("rhs[%d] = %.17g after the rejected trial, at the iterate it is %.17g", i, eng.rhs[i], rhs[i])
		}
	}

	exact, opts := trackedEngine(t)
	opts.MaxIter, opts.GainReuse = 1, ReuseOff
	want, err := exact.Estimate(opts)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] = %.17g, the exact step gives %.17g", i, got.X[i], want.X[i])
		}
	}
	checkResiduals(t, "rejected trial", eng.mod, got)
}

// TestCanceledEstimateLeavesNoCarry: an Estimate canceled right behind an
// accepted trial holds h, r and the next step's right-hand side at an iterate
// nobody will visit. The next Estimate starts over from X0 on the untouched
// anchor and is the run an engine that was never canceled makes.
func TestCanceledEstimateLeavesNoCarry(t *testing.T) {
	eng, opts := trackedEngine(t)
	if _, err := eng.EstimateCtx(&cancelAfter{Context: context.Background(), calls: 1}, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !eng.hValid || !eng.rhsValid {
		t.Fatal("the canceled Estimate did not stop behind an accepted fused trial")
	}
	got, err := eng.Estimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, opts := trackedEngine(t)
	want, err := fresh.Estimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "after a canceled Estimate", got, want)
	checkResiduals(t, "after a canceled Estimate", eng.mod, got)
}

// TestBadDataAfterLaggedSolve: a fully lagged solve never writes H, so the
// plan's H is that of some earlier refresh. Nothing may take it for H at the
// estimate: the normalized residuals are those a fresh engine computes, and
// the identification cycle removes the same measurements with and without
// the reuse tier.
func TestBadDataAfterLaggedSolve(t *testing.T) {
	eng, opts := trackedEngine(t)
	res, err := eng.Estimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.GainRefreshes != 0 {
		t.Fatalf("%d refreshes: the solve wrote H", res.GainRefreshes)
	}
	got, err := eng.NormalizedResiduals(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(eng.mod).NormalizedResiduals(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("normalized residual %d = %.17g, a fresh engine gives %.17g", i, got[i], want[i])
		}
	}

	mod := engineTestModel(t, grid.Case30, 1, 5)
	bad, err := meas.InjectBadData(mod.Meas, 11, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.UpdateValues(bad); err != nil {
		t.Fatal(err)
	}
	lagged, lagRes, err := IdentifyBadData(mod, Options{GainReuse: ReuseGain}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := IdentifyBadData(mod, Options{GainReuse: ReuseOff}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lagRes.GainSkips == 0 {
		t.Fatal("the identification cycle never lagged: the case tests nothing")
	}
	if len(lagged) != len(exact) || len(lagged) == 0 || lagged[0].Index != 11 {
		t.Fatalf("identified %+v under the reuse tier, %+v without", lagged, exact)
	}
	for i := range exact {
		if lagged[i].Index != exact[i].Index {
			t.Fatalf("removal %d: measurement %d under the reuse tier, %d without", i, lagged[i].Index, exact[i].Index)
		}
	}
}
