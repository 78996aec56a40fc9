package wls

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// oracleModel meters net with the full SCADA plan plus PMUs (σ 5e-4 angle
// and magnitude) at roughly every tenth bus — weights spread over 2.5
// decades per row and five in the gain — and simulates one noisy frame.
func oracleModel(t *testing.T, net *grid.Network, rng *rand.Rand) *meas.Model {
	t.Helper()
	return oracleModelWith(t, net, rng, nil)
}

// oracleModelWith is oracleModel with edit applied to the plan before the
// frame is simulated.
func oracleModelWith(t *testing.T, net *grid.Network, rng *rand.Rand, edit func([]meas.Measurement)) *meas.Model {
	t.Helper()
	pf, err := powerflow.Solve(net, powerflow.Options{FlatStart: true, MaxIter: 40})
	if err != nil {
		t.Fatalf("powerflow %s: %v", net.Name, err)
	}
	plan := meas.FullPlan().Build(net)
	for _, b := range net.Buses {
		if rng.Intn(10) == 0 {
			plan = append(plan,
				meas.Measurement{Kind: meas.Angle, Bus: b.ID, Sigma: 5e-4},
				meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 5e-4})
		}
	}
	if edit != nil {
		edit(plan)
	}
	ms, err := meas.Simulate(net, plan, pf.State, 1, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	ref := net.SlackIndex()
	mod, err := meas.NewModel(net, ms, ref, pf.State.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// outageOf returns a clone of net with one random in-service branch opened
// whose loss leaves the network connected and the power flow solvable.
func outageOf(t *testing.T, net *grid.Network, rng *rand.Rand) *grid.Network {
	t.Helper()
	for try := 0; try < 50; try++ {
		out := rng.Intn(len(net.Branches))
		if !net.Branches[out].Status {
			continue
		}
		pnet := net.Clone()
		pnet.Branches[out].Status = false
		if !pnet.Connected() {
			continue
		}
		if _, err := powerflow.Solve(pnet, powerflow.Options{FlatStart: true, MaxIter: 40}); err == nil {
			return pnet
		}
	}
	t.Fatalf("%s: no survivable single-branch outage found", net.Name)
	return nil
}

// oracleFixtures yields the oracle's networks: IEEE-14, IEEE-30, IEEE-118
// and two 236-bus SynthWECC grids, each intact and with one random outage,
// metered by oracleModel.
func oracleFixtures(t *testing.T, f func(mod *meas.Model)) {
	synth := func(seed int64) func() *grid.Network {
		return func() *grid.Network {
			n, err := grid.SynthWECC(grid.SynthOptions{Areas: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	for i, build := range []func() *grid.Network{grid.Case14, grid.Case30, grid.Case118, synth(1), synth(2)} {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		base := build()
		for _, net := range []*grid.Network{base, outageOf(t, base, rng)} {
			f(oracleModel(t, net, rng))
		}
	}
}

// TestExactMatchesDenseOracle checks the exact tier (ReuseOff) — the gain
// solved by the complete LDLᵀ factor's substitution at every step — against
// the dense LU normal-equations oracle in legacyEstimate's Gauss–Newton
// loop, which shares neither the sparse solve path nor the engine's loop:
// same Gauss–Newton trajectory length, states within 1e-8, and no fresh
// factor whose substitution needs refining (requireCleanFactor).
func TestExactMatchesDenseOracle(t *testing.T) {
	oracleFixtures(t, func(mod *meas.Model) {
		name := mod.Net.Name
		got, err := Estimate(mod, Options{GainReuse: ReuseOff})
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		want, err := legacyEstimate(mod, Options{}, nil, oracleDense)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: %d Gauss–Newton iterations, dense oracle %d", name, got.Iterations, want.Iterations)
		}
		requireCleanFactor(t, name, mod, got)
		requireNear(t, name, got.X, want.X, 1e-8)
	})
}

// TestDefaultMatchesDenseOracle checks the contract of a default one-shot
// solve (Options{}, the lagged tier anchored on its own refreshes, DESIGN
// §10) against the same dense oracle: it stops on the same ‖Δx‖∞ < Tol,
// takes at most one more Gauss–Newton iteration, lands within 1e-7, and
// lags at least one step on every fixture, with no factorization breakdown.
// The fixture must also need no refining of a fresh factor's substitution,
// which requireCleanFactor checks along the exact trajectory only, not at
// the iterates where this solve's lagged tier refreshed.
func TestDefaultMatchesDenseOracle(t *testing.T) {
	oracleFixtures(t, func(mod *meas.Model) {
		name := mod.Net.Name
		got, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatalf("%s: default: %v", name, err)
		}
		want, err := legacyEstimate(mod, Options{}, nil, oracleDense)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		if got.Iterations > want.Iterations+1 {
			t.Errorf("%s: %d Gauss–Newton iterations, dense oracle %d (want at most one more)", name, got.Iterations, want.Iterations)
		}
		if got.GainSkips == 0 {
			t.Errorf("%s: no lagged step in %d iterations", name, got.Iterations)
		}
		requireCleanFactor(t, name, mod, got)
		requireNear(t, name, got.X, want.X, 1e-7)
	})
}

// requireCleanFactor fails a solve that broke a factorization down, and a
// model on which a fresh factor's substitution needs refining. Of got it
// reads only PrecondFallbacks; the substitutions it checks are its own, on
// its own replay of the exact Gauss–Newton trajectory from flat (the one
// ReuseOff takes, at the default Tol), so a solve on another path — the
// lagged tier's, a warm start's — is checked at the exact path's iterates,
// not at its own. Every step's first substitution on a fresh factor of G
// must pass the residual check the engine applies,
// ‖rhs − G·Δx‖₂ ≤ solveTol·‖rhs‖₂.
func requireCleanFactor(t *testing.T, name string, mod *meas.Model, got *Result) {
	t.Helper()
	if got.PrecondFallbacks != 0 {
		t.Errorf("%s: %d factorization breakdowns on an observable system", name, got.PrecondFallbacks)
	}
	e := NewEngine(mod)
	copy(e.w, e.baseW)
	for i, m := range mod.Meas {
		e.z[i] = m.Value
	}
	x := mod.FlatVec()
	for iter := 0; iter < 25; iter++ {
		e.evalAt(x, true)
		e.refreshGain(e.jplan.Refresh(x), Options{})
		if err := e.refactor(e.gplan.G, nil); err != nil {
			t.Fatalf("%s: iteration %d: %v", name, iter, err)
		}
		dx := e.solveLagged()
		if !e.residualWithin(e.gplan.G, solveTol) {
			t.Errorf("%s: iteration %d: a fresh factor's substitution leaves a relative residual %g (want at most %g, unrefined)",
				name, iter, sparse.Norm2(e.xTrial)/sparse.Norm2(e.rhs), solveTol)
		}
		sparse.Axpy(1, dx, x)
		if sparse.NormInf(dx) < 1e-6 {
			return
		}
	}
	t.Fatalf("%s: the exact trajectory did not converge", name)
}

// requireNear fails when got and want differ by more than tol anywhere.
func requireNear(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for k := range want {
		if d := math.Abs(got[k] - want[k]); d > tol {
			t.Fatalf("%s: x[%d] = %.12g, dense oracle %.12g (|Δ| = %g > %g)", name, k, got[k], want[k], d, tol)
		}
	}
}

// TestDefaultUnderWeightMix holds the default tier to the dense oracle on
// IEEE-118 under the PMU σ 5e-4 + SCADA mix with one meter made far more
// precise than the rest: a voltage magnitude at σ 1e-11, and a branch flow
// at σ 1e-8 and 1e-7. A flow row's derivatives turn with the state, so a
// lagged gain's stiff direction points slightly off the current one, and
// its step can trade error along that row for error along weak directions:
// at σ 1e-8 the guard rejects such a step (ReuseFallbacks), at σ 1e-7 J still
// falls and the step is kept, and the solve went 25 iterations without
// converging until a lagged step that does not shrink the step re-anchors.
// Every case must converge within Tol of the oracle with J equal to the
// exact tier's to 1e-9, and no accepted lagged step may raise J: the solve
// is replayed with MaxIter 1, 2, … to read J and the counters after each
// step.
func TestDefaultUnderWeightMix(t *testing.T) {
	const tol = 1e-6
	for _, c := range []struct {
		key      string
		sigma    float64
		fallback bool // the guard must reject a lagged step
	}{
		{"V:bus1", 1e-11, false},
		{"Pflow:br10:t", 1e-8, true},
		{"Pflow:br10:t", 1e-7, false},
	} {
		name := fmt.Sprintf("%s at σ %g", c.key, c.sigma)
		found := false
		mod := oracleModelWith(t, grid.Case118(), rand.New(rand.NewSource(7)), func(plan []meas.Measurement) {
			for i := range plan {
				if plan[i].Key() == c.key {
					plan[i].Sigma, found = c.sigma, true
				}
			}
		})
		if !found {
			t.Fatalf("%s: no such meter", name)
		}
		got, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatalf("%s: default: %v", name, err)
		}
		exact, err := Estimate(mod, Options{GainReuse: ReuseOff})
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		want, err := legacyEstimate(mod, Options{}, nil, oracleDense)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		requireNear(t, name, got.X, want.X, tol)
		if d := math.Abs(got.ObjectiveJ - exact.ObjectiveJ); d > 1e-9*exact.ObjectiveJ {
			t.Errorf("%s: J %.12g by default, %.12g exactly", name, got.ObjectiveJ, exact.ObjectiveJ)
		}
		if got.GainSkips+got.ReuseFallbacks == 0 || c.fallback != (got.ReuseFallbacks > 0) {
			t.Errorf("%s: %d lagged steps kept and %d rolled back, want a lagged attempt and rollbacks %v",
				name, got.GainSkips, got.ReuseFallbacks, c.fallback)
		}

		var prev *Result
		for k := 1; k <= got.Iterations; k++ {
			step, err := Estimate(mod, Options{MaxIter: k})
			if err != nil && k == got.Iterations {
				t.Fatalf("%s: replay to %d iterations: %v", name, k, err)
			}
			if step.GainRefreshes+step.GainSkips != k || step.ReuseFallbacks > step.GainRefreshes {
				t.Fatalf("%s: after step %d: %d refreshes, %d lagged, %d rollbacks", name, k,
					step.GainRefreshes, step.GainSkips, step.ReuseFallbacks)
			}
			if prev != nil && step.GainSkips > prev.GainSkips && step.ObjectiveJ > prev.ObjectiveJ*(1+1e-12) {
				t.Errorf("%s: lagged step %d kept with J %.15g after %.15g", name, k, step.ObjectiveJ, prev.ObjectiveJ)
			}
			prev = step
		}
	}
}
