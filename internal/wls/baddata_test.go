package wls

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// denseResidualVariances is the covariance assembly the estimator ran before
// its LDLᵀ factor answered it: a fresh H and G at res.X, G factored densely
// by LU with partial pivoting, and Ω_ii = σ_i² − h_i·G⁻¹·h_iᵀ for every row,
// critical or not. It calls no Engine method.
func denseResidualVariances(t *testing.T, res *Result, mod *meas.Model) []float64 {
	t.Helper()
	hj := mod.Jacobian(res.X)
	lu, err := sparse.Factor(sparse.Gain(hj, mod.Weights()).ToDense())
	if err != nil {
		t.Fatal(err)
	}
	omega := make([]float64, mod.NMeas())
	hi := make([]float64, mod.NState())
	for i, m := range mod.Meas {
		clear(hi)
		for k := hj.RowPtr[i]; k < hj.RowPtr[i+1]; k++ {
			hi[hj.ColIdx[k]] = hj.Val[k]
		}
		y, err := lu.Solve(hi)
		if err != nil {
			t.Fatal(err)
		}
		omega[i] = m.Sigma*m.Sigma - sparse.Dot(hi, y)
	}
	return omega
}

// criticalModel meters IEEE-14 so that bus 8, radial off bus 7, is seen only
// through its own P and Q injections: two rows for its two states, both
// critical.
func criticalModel(t *testing.T) *meas.Model {
	t.Helper()
	n := grid.Case14()
	truth := solved(t, n)
	var plan []meas.Measurement
	for _, m := range meas.FullPlan().Build(n) {
		switch {
		case m.Kind == meas.Pflow || m.Kind == meas.Qflow:
			if br := n.Branches[m.Branch]; br.From == 8 || br.To == 8 {
				continue
			}
		case m.Bus == 7 && m.Kind != meas.Vmag, m.Bus == 8 && m.Kind == meas.Vmag:
			continue
		}
		plan = append(plan, m)
	}
	ms, err := meas.Simulate(n, plan, truth, 1, 35)
	if err != nil {
		t.Fatal(err)
	}
	slack := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, slack, truth.Va[slack])
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestNormalizedResidualsMatchDenseOracle holds the factor's residual
// variances to the dense-LU oracle's within 1e-8 (relative) on every
// non-critical row of IEEE-14, -30 and -118 under the SCADA plan, of
// IEEE-118 with PMUs (σ 5e-4) mixed in and of an IEEE-14 plan with two
// critical rows, which must report 0. The factor's Ω_ii is read back from
// rᴺ_i = |r_i| / √Ω_ii.
func TestNormalizedResidualsMatchDenseOracle(t *testing.T) {
	cases := []struct {
		name string
		mod  *meas.Model
	}{
		{"ieee14", engineTestModel(t, grid.Case14, 1, 31)},
		{"ieee30", engineTestModel(t, grid.Case30, 1, 32)},
		{"ieee118", engineTestModel(t, grid.Case118, 1, 33)},
		{"ieee118-pmu", oracleModel(t, grid.Case118(), rand.New(rand.NewSource(34)))},
		{"ieee14-critical", criticalModel(t)},
	}
	critical := 0
	for _, c := range cases {
		res, err := Estimate(c.mod, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rn, err := NormalizedResiduals(res, c.mod)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := denseResidualVariances(t, res, c.mod)
		checked := 0
		for i, m := range c.mod.Meas {
			s2, r := m.Sigma*m.Sigma, res.Residuals[i]
			switch {
			case want[i] < 1e-10*s2:
				if rn[i] != 0 {
					t.Errorf("%s: critical row %d (Ω = %g σ²) reports rᴺ = %g", c.name, i, want[i]/s2, rn[i])
				}
				critical++
			case want[i] > 1e-6*s2 && r != 0:
				got := r * r / (rn[i] * rn[i])
				if d := math.Abs(got-want[i]) / want[i]; d > 1e-8 {
					t.Errorf("%s: row %d: Ω = %.12g, dense oracle %.12g (relative %g)", c.name, i, got, want[i], d)
				}
				checked++
			}
		}
		if checked < c.mod.NMeas()/2 {
			t.Fatalf("%s: only %d of %d rows compared", c.name, checked, c.mod.NMeas())
		}
	}
	if critical != 2 {
		t.Errorf("%d critical rows, want the two injections at bus 8", critical)
	}
}

// TestBadDataFoundAtAnyMeterPrecision scales every σ of the IEEE-14 SCADA
// plan, and with it the simulated noise, by c, and adds a 25σ error to
// measurement 30 (V at bus 11). Its normalized residual is scale-free, so
// identification must find it with the same rᴺ at every c. A critical-row
// cutoff on Ω_ii that does not scale with σ² read every row with σ ≤ 1e-6
// as critical: from c = 1e-4 on nothing was identified while the χ² test
// still tripped.
func TestBadDataFoundAtAnyMeterPrecision(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	const bad = 30
	var ref float64
	for _, c := range []float64{1, 1e-2, 1e-4, 1e-5, 1e-7} {
		plan := meas.FullPlan().Build(n)
		for i := range plan {
			plan[i].Sigma *= c
		}
		ms, err := meas.Simulate(n, plan, truth, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ms, err = meas.InjectBadData(ms, bad, 25); err != nil {
			t.Fatal(err)
		}
		slack := n.SlackIndex()
		mod, err := meas.NewModel(n, ms, slack, truth.Va[slack])
		if err != nil {
			t.Fatal(err)
		}
		removed, _, err := IdentifyBadData(mod, Options{}, 3, 5)
		if err != nil {
			t.Fatalf("c = %g: %v", c, err)
		}
		if len(removed) == 0 || removed[0].Index != bad {
			t.Fatalf("c = %g: identified %+v, want measurement %d (%s) first", c, removed, bad, mod.Meas[bad].Key())
		}
		if c == 1 {
			ref = removed[0].Normalized
		} else if d := math.Abs(removed[0].Normalized - ref); d > 1e-3*ref {
			t.Errorf("c = %g: rᴺ = %.6g, %.6g at c = 1", c, removed[0].Normalized, ref)
		}
	}
}

// TestEstimateAfterNormalizedResiduals: the covariance assembly refactors the
// engine's own LDLᵀ factor at the estimate. The solve that follows must not
// see it: on a second frame, warm started, it is bit for bit the solve of an
// engine that ran no assembly (and dropped its anchor, as the assembly does),
// under both reuse tiers.
func TestEstimateAfterNormalizedResiduals(t *testing.T) {
	// The subtest names the gain solve the body runs on: the LDLᵀ factor.
	t.Run("ldl", func(t *testing.T) {
		for _, reuse := range []GainReuseKind{ReuseOff, ReuseGain} {
			var second [2]*Result
			for k := range second {
				mod := engineTestModel(t, grid.Case118, 1, 41)
				eng := NewEngine(mod)
				opts := Options{GainReuse: reuse}
				first, err := eng.Estimate(opts)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					if _, err := eng.NormalizedResiduals(first); err != nil {
						t.Fatal(err)
					}
				} else {
					eng.ResetReuse()
				}
				if err := mod.UpdateValues(engineTestModel(t, grid.Case118, 1, 42).Meas); err != nil {
					t.Fatal(err)
				}
				opts.X0 = first.X
				if second[k], err = eng.Estimate(opts); err != nil {
					t.Fatal(err)
				}
			}
			name := reuse.String()
			sameSolve(t, name, second[0], second[1])
			for i := range second[1].Residuals {
				if math.Float64bits(second[0].Residuals[i]) != math.Float64bits(second[1].Residuals[i]) {
					t.Fatalf("%s: residual %d = %.17g, without the assembly %.17g", name, i, second[0].Residuals[i], second[1].Residuals[i])
				}
			}
		}
	})
}

// TestBadDataVerdictsMatchExactTier plants a 20σ error on IEEE-14, -30 and
// -118 under the SCADA plan. The default tier, which lags the last step of
// every solve of the identification cycle, must reach the exact tier's
// verdicts: the same rows removed in the same order, each at the same rᴺ to
// 1e-6 relative, and the χ² test's J of the first solve and of the clean
// final one equal to 1e-9 relative.
func TestBadDataVerdictsMatchExactTier(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *grid.Network
		bad   int
	}{
		{"ieee14", grid.Case14, 30},
		{"ieee30", grid.Case30, 40},
		{"ieee118", grid.Case118, 200},
	} {
		mod := engineTestModel(t, c.build, 1, 51)
		ms, err := meas.InjectBadData(mod.Meas, c.bad, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.UpdateValues(ms); err != nil {
			t.Fatal(err)
		}
		var removed [2][]BadDatum
		var first, final [2]*Result
		for k, reuse := range []GainReuseKind{ReuseGain, ReuseOff} {
			if first[k], err = Estimate(mod, Options{GainReuse: reuse}); err != nil {
				t.Fatalf("%s/%v: %v", c.name, reuse, err)
			}
			if removed[k], final[k], err = IdentifyBadData(mod, Options{GainReuse: reuse}, 3, 5); err != nil {
				t.Fatalf("%s/%v: %v", c.name, reuse, err)
			}
		}
		if first[0].GainSkips == 0 || final[0].GainSkips == 0 {
			t.Fatalf("%s: the default tier never lagged: the case tests nothing", c.name)
		}
		lag, exact := removed[0], removed[1]
		if len(exact) == 0 || exact[0].Index != c.bad {
			t.Fatalf("%s: exact tier identified %+v, want measurement %d first", c.name, exact, c.bad)
		}
		if len(lag) != len(exact) {
			t.Fatalf("%s: identified %+v by default, %+v exactly", c.name, lag, exact)
		}
		for i := range exact {
			if lag[i].Index != exact[i].Index || math.Abs(lag[i].Normalized-exact[i].Normalized) > 1e-6*exact[i].Normalized {
				t.Errorf("%s: removal %d: measurement %d at rᴺ %.9g by default, %d at %.9g exactly",
					c.name, i, lag[i].Index, lag[i].Normalized, exact[i].Index, exact[i].Normalized)
			}
		}
		for k, pair := range [][2]*Result{first, final} {
			if a, b := pair[0].ObjectiveJ, pair[1].ObjectiveJ; math.Abs(a-b) > 1e-9*b {
				t.Errorf("%s: J of the %s solve %.12g by default, %.12g exactly", c.name, []string{"first", "final"}[k], a, b)
			}
		}
	}
}
