package wls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// oracleSolve is how legacyEstimate solves each Gauss–Newton step.
type oracleSolve int

const (
	// oracleCG runs Jacobi-preconditioned sparse.CG on G, serially.
	oracleCG oracleSolve = iota
	// oracleDense factors G by dense LU with partial pivoting.
	oracleDense
	// oracleQR triangularizes √W·H by Givens rotations (solveQR) and never
	// forms G.
	oracleQR
)

// legacyEstimate is a frozen copy of the pre-engine Gauss–Newton path
// (fresh mod.Jacobian and sparse.Gain every iteration, cold-started CG),
// and the loop the dense and QR oracles run in. It calls no Engine method,
// so the engine's loop, lagged-step guard and h/r carry are checked against
// code they do not share; the engine must reproduce its results to well
// under measurement precision.
func legacyEstimate(mod *meas.Model, opts Options, scale []float64, solve oracleSolve) (*Result, error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	x := mod.FlatVec()
	if opts.X0 != nil {
		copy(x, opts.X0)
	}
	w := mod.Weights()
	if scale != nil {
		for i := range w {
			w[i] *= scale[i]
		}
	}
	z := make([]float64, mod.NMeas())
	for i, m := range mod.Meas {
		z[i] = m.Value
	}
	res := &Result{}
	r := make([]float64, mod.NMeas())
	for iter := 0; iter < maxIter; iter++ {
		h := mod.Eval(x)
		sparse.Sub(r, z, h)
		hj := mod.Jacobian(x)
		var dx []float64
		var cgIters int
		var err error
		if solve == oracleQR {
			dx, err = solveQR(hj, w, r)
		} else {
			g := sparse.Gain(hj, w)
			rhs := sparse.GainRHS(hj, w, r)
			dx, cgIters, err = legacySolveGain(g, rhs, solve)
		}
		if err != nil {
			return nil, err
		}
		res.CGIterations += cgIters
		sparse.Axpy(1, dx, x)
		res.Iterations = iter + 1
		if sparse.NormInf(dx) < tol {
			res.Converged = true
			break
		}
	}
	h := mod.Eval(x)
	sparse.Sub(r, z, h)
	res.X = x
	res.State = mod.VecToState(x)
	res.Residuals = r
	for i := range r {
		res.ObjectiveJ += w[i] * r[i] * r[i]
	}
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, nil
}

func legacySolveGain(g *sparse.CSR, rhs []float64, solve oracleSolve) ([]float64, int, error) {
	if solve == oracleDense {
		x, err := sparse.SolveDense(g.ToDense(), rhs)
		if errors.Is(err, sparse.ErrSingular) {
			return nil, 0, ErrUnobservable
		}
		return x, 0, err
	}
	pre, err := sparse.NewJacobi(g)
	if err != nil {
		return nil, 0, err
	}
	cg, err := sparse.CG(g, rhs, sparse.CGOptions{Tol: solveTol, Precond: pre})
	if err != nil {
		if errors.Is(err, sparse.ErrNotSPD) {
			return nil, cg.Iterations, ErrUnobservable
		}
		return nil, cg.Iterations, err
	}
	return cg.X, cg.Iterations, nil
}

func engineTestModel(t *testing.T, build func() *grid.Network, noise float64, seed int64) *meas.Model {
	t.Helper()
	n := build()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	ms, err := meas.Simulate(n, meas.FullPlan().Build(n), pf.State, noise, seed)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, pf.State.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestEngineMatchesLegacyEstimate: the engine's exact tier (ReuseOff), on
// the pool and serially, against the legacy loop, which is exact
// Gauss–Newton, on its Jacobi-PCG, dense and QR oracles.
// TestDefaultMatchesDenseOracle holds the default tier.
func TestEngineMatchesLegacyEstimate(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		solve oracleSolve
	}{
		{"pcg-ldl", Options{GainReuse: ReuseOff}, oracleCG},
		{"pcg-serial", Options{Workers: 1, GainReuse: ReuseOff}, oracleCG},
		{"dense", Options{GainReuse: ReuseOff}, oracleDense},
		{"qr", Options{GainReuse: ReuseOff}, oracleQR},
	}
	mod := engineTestModel(t, grid.Case14, 0.01, 42)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := legacyEstimate(mod, tc.opts, nil, tc.solve)
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			got, err := Estimate(mod, tc.opts)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("iterations: engine %d, legacy %d", got.Iterations, want.Iterations)
			}
			for i := range want.X {
				if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12 {
					t.Fatalf("x[%d]: engine %v legacy %v (|Δ|=%.3g > 1e-12)", i, got.X[i], want.X[i], d)
				}
			}
			if d := math.Abs(got.ObjectiveJ - want.ObjectiveJ); d > 1e-9*(1+want.ObjectiveJ) {
				t.Errorf("objective: engine %v legacy %v", got.ObjectiveJ, want.ObjectiveJ)
			}
		})
	}
}

func TestEngineMatchesLegacyOn118(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	opts := Options{GainReuse: ReuseOff}
	want, err := legacyEstimate(mod, opts, nil, oracleCG)
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	got, err := Estimate(mod, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i := range want.X {
		if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12 {
			t.Fatalf("x[%d]: |Δ|=%.3g > 1e-12", i, d)
		}
	}
}

// TestEngineReuse runs the same engine repeatedly and against fresh engines:
// solver state (warm starts, preconditioner numerics, workspaces) must not
// leak between calls.
func TestEngineReuse(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 0.01, 3)
	eng := NewEngine(mod)
	first, err := eng.Estimate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		again, err := eng.Estimate(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.X {
			if math.Float64bits(first.X[i]) != math.Float64bits(again.X[i]) {
				t.Fatalf("call %d: x[%d] drifted: %v vs %v", call, i, again.X[i], first.X[i])
			}
		}
		if again.Iterations != first.Iterations || again.CGIterations != first.CGIterations {
			t.Fatalf("call %d: iteration counts drifted", call)
		}
	}
}

func TestEngineRebind(t *testing.T) {
	modA := engineTestModel(t, grid.Case14, 0.01, 5)
	modB := engineTestModel(t, grid.Case14, 0.01, 6) // same structure, new values
	eng := NewEngine(modA)
	exact := Options{GainReuse: ReuseOff}
	if _, err := eng.Estimate(exact); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(modB); err != nil {
		t.Fatalf("rebind to same-structure model: %v", err)
	}
	got, err := eng.Estimate(exact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyEstimate(modB, exact, nil, oracleCG)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.X {
		if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12 {
			t.Fatalf("after rebind, x[%d]: |Δ|=%.3g > 1e-12", i, d)
		}
	}

	// Different structure must be rejected.
	other := engineTestModel(t, grid.Case118, 0.01, 5)
	if err := eng.Rebind(other); err == nil {
		t.Fatal("rebind accepted a structurally different model")
	}
	// ... and the engine must still work on its previous model.
	if _, err := eng.Estimate(Options{}); err != nil {
		t.Fatalf("engine broken after failed rebind: %v", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 0.01, 8)
	eng := NewEngine(mod)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EstimateCtx(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEngineIterationZeroAllocKernels pins the per-iteration hot path: the
// fused pass (h, r, J and the right-hand side) and the numeric refreshes of
// H and G allocate nothing, where the legacy path assembles everything anew
// each iteration.
func TestEngineIterationZeroAllocKernels(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 0.01, 9)
	eng := NewEngine(mod)
	x := mod.FlatVec()
	copy(eng.w, eng.baseW)
	eng.evalAt(x, true) // makes rhsTrial and the plan's column map
	eng.gplan.RefreshPool(eng.jplan.Refresh(x), eng.w, eng.pool)

	if allocs := testing.AllocsPerRun(20, func() {
		eng.evalAt(x, true)
		eng.gplan.Refresh(eng.jplan.Refresh(x), eng.w)
	}); allocs != 0 {
		t.Fatalf("numeric refresh kernels allocated %v times per run, want 0", allocs)
	}
}

// TestGainMatrixBSREquivalence is the randomized property test of the
// blocked gain layout on real gain patterns (the engine no longer solves in
// it; benchmark/replay.go still builds it): for the 14/30/118-bus gain
// matrices under random weights, the interleave-ordered blocked refresh
// must match the same-ordered scalar refresh to 1e-12.
func TestGainMatrixBSREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, build := range []func() *grid.Network{grid.Case14, grid.Case30, grid.Case118} {
		mod := engineTestModel(t, build, 0.01, 5)
		hj := mod.Jacobian(mod.FlatVec())
		perm := sparse.BusInterleave(mod.NAngles(), mod.Net.N(), mod.RefBus(), nil)
		gp := sparse.NewGainPlanOrdered(hj, perm)
		w := make([]float64, hj.Rows)
		for trial := 0; trial < 3; trial++ {
			for i := range w {
				w[i] = 0.1 + rng.Float64()*10
			}
			g := gp.Refresh(hj, w)
			bsr := gp.RefreshPoolBSR(hj, w, nil)
			for i := 0; i < g.Rows; i++ {
				for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
					diff := math.Abs(bsr.At(i, g.ColIdx[k]) - g.Val[k])
					if diff > 1e-12*(1+math.Abs(g.Val[k])) {
						t.Fatalf("%s trial %d: blocked G(%d,%d) off by %g",
							mod.Net.Name, trial, i, g.ColIdx[k], diff)
					}
				}
			}
		}
	}
}

// TestLDLAnalysisSurvivesNumericResets: the factor's symbolic analysis is
// plan-like. Everything that drops or overwrites numerics — ColdStart,
// ResetReuse, Rebind, mask and unmask, a factorization breakdown — keeps
// the one analysis the first solve built, and the estimate afterwards is
// bitwise the first one.
func TestLDLAnalysisSurvivesNumericResets(t *testing.T) {
	modA := engineTestModel(t, grid.Case30, 0.01, 5)
	modB := engineTestModel(t, grid.Case30, 0.01, 6)
	eng := NewEngine(modA)
	opts := Options{GainReuse: ReuseGain}
	first, err := eng.Estimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	analysis := eng.ldl
	if analysis == nil {
		t.Fatal("the default solve built no LDLᵀ factor")
	}
	check := func(step string) {
		t.Helper()
		eng.ResetReuse() // a lagged solve is not bitwise a fresh one
		res, err := eng.Estimate(opts)
		if err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
		if eng.ldl != analysis {
			t.Fatalf("%s triggered a second symbolic analysis", step)
		}
		if res.PrecondFallbacks != 0 {
			t.Fatalf("after %s: %d factorization breakdowns", step, res.PrecondFallbacks)
		}
		for i := range first.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(first.X[i]) {
				t.Fatalf("after %s: x[%d] = %v, first solve %v", step, i, res.X[i], first.X[i])
			}
		}
	}
	check("ResetReuse")
	eng.ColdStart()
	check("ColdStart")

	if err := eng.Rebind(modB); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Estimate(opts); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(modA); err != nil {
		t.Fatal(err)
	}
	check("Rebind")

	// Every weight zero: the solve is refused before any numerics (no
	// unmasked measurement is left), and unmasking restores the weights.
	for i := range modA.Meas {
		if err := eng.MaskMeasurement(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Estimate(opts); err == nil {
		t.Fatal("estimate on a fully masked model succeeded")
	}
	eng.UnmaskAll()
	check("mask and unmask")

	// A resistive spur seen through one flow row: the factor breaks down,
	// damped steps carry those refreshes, and the solve fails naming the
	// leaf bus rather than return a state for it.
	leaf := maskSpur(t, eng)
	eng.ResetReuse()
	_, err = eng.Estimate(opts)
	requireNamedBreakdown(t, err, leaf)
	eng.UnmaskAll()
	check("mask, breakdown and unmask")
}

// maskSpur masks every meter of an IEEE-30 engine's model that sees the leaf
// bus of a resistive spur, bar the spur's from-side P flow, and returns the
// leaf's bus number. Both its states keep an unmasked row and
// m − masked ≥ n, so no count refuses a solve, but two unknowns share one
// equation and G is singular.
func maskSpur(t *testing.T, eng *Engine) int {
	t.Helper()
	mod := eng.Model()
	degree := make(map[int]int)
	for _, br := range mod.Net.Branches {
		degree[br.From]++
		degree[br.To]++
	}
	spur := slices.IndexFunc(mod.Net.Branches, func(br grid.Branch) bool { return degree[br.To] == 1 && br.R != 0 })
	if spur < 0 {
		t.Fatal("IEEE-30 has no resistive spur")
	}
	leaf, hub := mod.Net.Branches[spur].To, mod.Net.Branches[spur].From
	for i, m := range mod.Meas {
		onSpur := (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == spur
		atEnds := (m.Kind == meas.Pinj || m.Kind == meas.Qinj) && (m.Bus == leaf || m.Bus == hub)
		kept := m.Kind == meas.Pflow && m.Branch == spur && m.FromSide
		if (onSpur || atEnds || m.Kind == meas.Vmag && m.Bus == leaf) && !kept {
			if err := eng.MaskMeasurement(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return leaf
}

// requireNamedBreakdown fails unless err is ErrUnobservable wrapping the
// factor's breakdown and naming bus.
func requireNamedBreakdown(t *testing.T, err error, bus int) {
	t.Helper()
	var pe *sparse.PivotError
	if !errors.Is(err, ErrUnobservable) || !errors.As(err, &pe) || !strings.Contains(err.Error(), fmt.Sprintf("bus %d:", bus)) {
		t.Fatalf("singular gain at bus %d: err %v, want ErrUnobservable naming the bus", bus, err)
	}
}

// TestSolveLinearNamesSingularGain: the linear solve's one gain, at the flat
// start, is singular on the masked spur. Its damped step is all it has, so
// it fails naming the leaf bus rather than return that step as a state.
func TestSolveLinearNamesSingularGain(t *testing.T) {
	eng := NewEngine(engineTestModel(t, grid.Case30, 0.01, 5))
	leaf := maskSpur(t, eng)
	_, err := eng.SolveLinear(Options{})
	requireNamedBreakdown(t, err, leaf)
}

// TestEngineOnMetersEditedInPlace: a model keeps the caller's measurement
// slice, so its meters can be edited past NewModel's checks after it was
// built. meas.GainPattern refuses such a set — here a NaN value — and the
// engine then walks G's pattern off H instead, which is the pattern the
// closed form wrote before the edit; the one-shot solve builds on it too.
func TestEngineOnMetersEditedInPlace(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 0.01, 1)
	want := NewEngine(mod).gplan.G
	mod.Meas[0].Value = math.NaN()
	if _, ok := meas.GainPattern(mod.Net, mod.Meas, mod.RefBus()); ok {
		t.Fatal("meas.GainPattern accepts a NaN value")
	}
	got := NewEngine(mod).gplan.G
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("the walked pattern (%d entries) is not the closed form's (%d)", len(got.ColIdx), len(want.ColIdx))
	}
	if _, err := Estimate(mod, Options{MaxIter: 2}); err == nil {
		t.Fatal("a NaN measurement value estimated without error")
	}
}
