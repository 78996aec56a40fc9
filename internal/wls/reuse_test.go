package wls

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// TestReuseGainMatchesDenseOracle checks the lagged tier against an oracle
// that shares none of it: one persistent engine per network tracks noisy
// frames of a drifting operating point under ReuseGain — a cold solve, then
// warm re-solves from the previous solution — and every frame must land
// within the Gauss–Newton tolerance of a flat-start dense-LU estimate of
// that frame on a model of its own, in legacyEstimate's loop, with lagged
// steps actually taken.
func TestReuseGainMatchesDenseOracle(t *testing.T) {
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118(), wecc} {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			t.Fatalf("powerflow %s: %v", n.Name, err)
		}
		plan := meas.FullPlan().Build(n)
		ref := n.SlackIndex()
		// Frame f meters the solved state moved by up to f × 2.5e-3 (rad, p.u.)
		// per bus, under its own noise draw: two or three frames per anchor.
		frame := func(f int) ([]meas.Measurement, float64) {
			st := pf.State.Clone()
			for i := range st.Vm {
				st.Va[i] += 2.5e-3 * float64(f) * math.Sin(float64(i))
				st.Vm[i] += 2.5e-3 * float64(f) * math.Cos(float64(i))
			}
			ms, err := meas.Simulate(n, plan, st, 1, int64(10+f))
			if err != nil {
				t.Fatal(err)
			}
			return ms, st.Va[ref]
		}
		ms, refAngle := frame(0)
		mod, err := meas.NewModel(n, ms, ref, refAngle)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(mod)
		opts := Options{GainReuse: ReuseGain, X0Gate: WarmStartGate}
		skips, refreshes := 0, 0
		for f := 0; f < 6; f++ {
			ms, refAngle := frame(f)
			if err := mod.UpdateValues(ms); err != nil {
				t.Fatal(err)
			}
			mod.SetRefAngle(refAngle)
			got, err := eng.Estimate(opts)
			if err != nil {
				t.Fatalf("%s frame %d: lagged: %v", n.Name, f, err)
			}
			oracle, err := meas.NewModel(n, ms, ref, refAngle)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyEstimate(oracle, Options{Tol: 1e-10}, nil, oracleDense)
			if err != nil {
				t.Fatalf("%s frame %d: dense: %v", n.Name, f, err)
			}
			for k := range want.X {
				if d := math.Abs(got.X[k] - want.X[k]); d > 1e-6 {
					t.Fatalf("%s frame %d: x[%d] = %.12g, dense oracle %.12g (|Δ| = %g)", n.Name, f, k, got.X[k], want.X[k], d)
				}
			}
			if got.PrecondFallbacks != 0 {
				t.Errorf("%s frame %d: %d factorization breakdowns", n.Name, f, got.PrecondFallbacks)
			}
			if f > 0 {
				skips += got.GainSkips
				refreshes += got.GainRefreshes
			}
			opts.X0 = got.X
		}
		if skips == 0 || refreshes == 0 {
			t.Errorf("%s: warm frames took %d lagged steps and %d refreshes (want both: the drift crosses the gate)", n.Name, skips, refreshes)
		}
	}
}

// TestReuseGainFallbackOnStateJump: a state jump far past the drift gate
// must force a fresh refresh, so a warm engine carrying a stale anchor
// produces exactly the same solve as a cold engine.
func TestReuseGainFallbackOnStateJump(t *testing.T) {
	// The subtest names the gain solve the body runs on: the LDLᵀ factor.
	t.Run("ldl", func(t *testing.T) {
		n := grid.Case118()
		truth := solved(t, n)
		mod := buildModel(t, n, truth, 1, 7)
		opts := Options{GainReuse: ReuseGain}

		warmEng := NewEngine(mod)
		if _, err := warmEng.Estimate(opts); err != nil {
			t.Fatal(err) // anchors the reuse state at the solution
		}
		// Flat restart: scaled drift from the anchored solution is far above
		// the gate, so the first iteration must refresh, and from there the
		// warm engine's trajectory is the cold engine's.
		warmRes, err := warmEng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		coldRes, err := NewEngine(mod).Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range warmRes.X {
			if warmRes.X[i] != coldRes.X[i] {
				t.Fatalf("state %d: warm %.17g != cold %.17g (stale anchor leaked into the jumped solve)", i, warmRes.X[i], coldRes.X[i])
			}
		}
		if warmRes.Counters != coldRes.Counters {
			t.Fatalf("warm counters %+v != cold %+v", warmRes.Counters, coldRes.Counters)
		}
		if warmRes.GainRefreshes == 0 {
			t.Fatal("jumped solve never refreshed the gain matrix")
		}
	})
}

// TestReuseGainSteadySolveSkipsRefresh: a steady re-estimate from the
// previous solution under ReuseGain runs entirely on lagged numerics —
// zero gain refreshes, zero preconditioner refreshes — and allocates no
// more than the always-refresh path.
func TestReuseGainSteadySolveSkipsRefresh(t *testing.T) {
	// The subtest names the gain solve the body runs on: the LDLᵀ factor.
	t.Run("ldl", func(t *testing.T) {
		n := grid.Case118()
		truth := solved(t, n)
		mod := buildModel(t, n, truth, 1, 9)

		eng := NewEngine(mod)
		opts := Options{GainReuse: ReuseGain, Workers: 1}
		cold, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.X0 = sparse.CopyVec(cold.X)
		steady, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if steady.GainRefreshes != 0 || steady.GainSkips != steady.Iterations {
			t.Fatalf("steady solve: %d refreshes, %d skips over %d iterations (want all skipped)",
				steady.GainRefreshes, steady.GainSkips, steady.Iterations)
		}
		if steady.PrecondSkips != steady.Iterations {
			t.Fatalf("steady solve: %d preconditioner skips over %d iterations", steady.PrecondSkips, steady.Iterations)
		}
		if steady.ReuseFallbacks != 0 {
			t.Fatalf("steady solve tripped the guard %d times", steady.ReuseFallbacks)
		}

		offEng := NewEngine(mod)
		offOpts := opts
		offOpts.GainReuse = ReuseOff
		if _, err := offEng.Estimate(offOpts); err != nil {
			t.Fatal(err)
		}
		reuseAllocs := testing.AllocsPerRun(5, func() {
			if _, err := eng.Estimate(opts); err != nil {
				t.Fatal(err)
			}
		})
		offAllocs := testing.AllocsPerRun(5, func() {
			if _, err := offEng.Estimate(offOpts); err != nil {
				t.Fatal(err)
			}
		})
		if reuseAllocs > offAllocs {
			t.Fatalf("drift-gated steady solve allocates %.0f vs %.0f always-refresh (reuse must not add allocations)",
				reuseAllocs, offAllocs)
		}
		t.Logf("steady-solve allocations: reuse %.0f, always-refresh %.0f", reuseAllocs, offAllocs)
	})
}

// TestMaskMeasurementMatchesRemoval: zeroing a measurement's weight slot
// is numerically the same estimate as rebuilding the model without the
// row, and UnmaskAll restores the full-model estimate exactly.
func TestMaskMeasurementMatchesRemoval(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	plan := meas.FullPlan().Build(n)
	ref := n.SlackIndex()
	ms, err := meas.Simulate(n, plan, truth, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	full, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const drop = 10
	eng := NewEngine(mod)
	if err := eng.MaskMeasurement(drop); err != nil {
		t.Fatal(err)
	}
	if !eng.MaskedMeasurement(drop) || eng.MaskedMeasurement(drop+1) {
		t.Fatal("mask bookkeeping wrong")
	}
	masked, err := eng.Estimate(Options{})
	if err != nil {
		t.Fatal(err)
	}

	reduced := append(append([]meas.Measurement(nil), ms[:drop]...), ms[drop+1:]...)
	rmod, err := meas.NewModel(n, reduced, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	removed, err := Estimate(rmod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range masked.X {
		if d := math.Abs(masked.X[i] - removed.X[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("masked estimate deviates %g from removed-row estimate", worst)
	}
	if d := math.Abs(masked.ObjectiveJ - removed.ObjectiveJ); d > 1e-9*(1+removed.ObjectiveJ) {
		t.Fatalf("masked J=%g vs removed J=%g", masked.ObjectiveJ, removed.ObjectiveJ)
	}

	eng.UnmaskAll()
	restored, err := eng.Estimate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range restored.X {
		if restored.X[i] != full.X[i] {
			t.Fatalf("state %d after UnmaskAll: %.17g != full-model %.17g", i, restored.X[i], full.X[i])
		}
	}
	if err := eng.MaskMeasurement(len(ms)); err == nil {
		t.Fatal("out-of-range mask index accepted")
	}
}

// TestIdentifyBadDataKeepsFullResiduals: the masking sweep reports indices
// into the original model and a final result over the full measurement
// set, with masked rows excluded from the objective and never re-flagged.
func TestIdentifyBadDataKeepsFullResiduals(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 5)
	const corrupt = 7
	mod.Meas[corrupt].Value += 30 * mod.Meas[corrupt].Sigma

	removed, clean, err := IdentifyBadData(mod, Options{}, 3.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("no bad data identified")
	}
	found := false
	for _, b := range removed {
		if b.Index == corrupt {
			found = true
		}
		if b.Key != mod.Meas[b.Index].Key() {
			t.Fatalf("identified index %d carries key %q, model says %q", b.Index, b.Key, mod.Meas[b.Index].Key())
		}
	}
	if !found {
		t.Fatalf("corrupt measurement %d not among identified %v", corrupt, removed)
	}
	if len(clean.Residuals) != mod.NMeas() {
		t.Fatalf("clean result has %d residuals for %d measurements (masking must keep the full set)",
			len(clean.Residuals), mod.NMeas())
	}
}
