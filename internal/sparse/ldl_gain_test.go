package sparse_test

// An external test package: the estimator's real gain matrices need grid,
// powerflow and meas, which import sparse.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// TestLDLApplyAloneMeetsCGTolerance: on the estimator's own gain systems one
// substitution of a fresh factor already passes the stopping test CG would
// apply to it, ‖b − G·x‖₂ ≤ 1e-10·‖b‖₂ — at the flat start, where the
// right-hand side is largest, and one Gauss–Newton step later. The gains are
// IEEE-118 and a 2-area SynthWECC under the full SCADA plan plus PMUs at
// roughly every tenth bus (the weight mix of wls's dense-oracle tests, PMU
// σ 5e-4), and with the PMU σ pushed to 1e-6 and 1e-9: weights spread over
// up to fourteen decades.
func TestLDLApplyAloneMeetsCGTolerance(t *testing.T) {
	const cgTol = 1e-10
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*grid.Network{grid.Case118(), wecc} {
		pf, err := powerflow.Solve(net, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			t.Fatalf("powerflow %s: %v", net.Name, err)
		}
		for _, sigma := range []float64{5e-4, 1e-6, 1e-9} {
			rng := rand.New(rand.NewSource(100))
			plan := meas.FullPlan().Build(net)
			for _, b := range net.Buses {
				if rng.Intn(10) == 0 {
					plan = append(plan,
						meas.Measurement{Kind: meas.Angle, Bus: b.ID, Sigma: sigma},
						meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: sigma})
				}
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
			w := mod.Weights()
			z := make([]float64, mod.NMeas())
			for i, m := range mod.Meas {
				z[i] = m.Value
			}
			x := mod.FlatVec()
			r := make([]float64, len(z))
			gx := make([]float64, len(x))
			dx := make([]float64, len(x))
			var f *sparse.LDLFactor
			for step := 0; step < 2; step++ {
				name := fmt.Sprintf("%s, PMU σ %g, step %d", net.Name, sigma, step)
				h := mod.Jacobian(x)
				g := sparse.Gain(h, w)
				sparse.Sub(r, z, mod.Eval(x))
				b := sparse.GainRHS(h, w, r)
				if f == nil {
					f, err = sparse.AnalyzeLDL(g)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if err := f.Refresh(g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f.Apply(dx, b)
				g.MulVec(gx, dx)
				sparse.Sub(gx, b, gx)
				rel := sparse.Norm2(gx) / sparse.Norm2(b)
				if !(rel <= cgTol) {
					t.Errorf("%s: relative residual %.3g after one substitution, CG's test is %g", name, rel, cgTol)
				}
				t.Logf("%s: relative residual %.3g", name, rel)
				sparse.Axpy(1, dx, x)
			}
		}
	}
}

// TestLDLMatchesOracleOnGains: on the estimator's centralized gains —
// IEEE-14, 30 and 118 and the 12-area SynthWECC, and the IEEE-118 gain with
// its rows stored shuffled — L, D and one solution are bitwise those of the
// substitution and refactorization kept in ldl_test.go as the oracle.
func TestLDLMatchesOracleOnGains(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g118 := centralGain(t, grid.Case118())
	for name, g := range map[string]*sparse.CSR{
		"ieee14":           centralGain(t, grid.Case14()),
		"ieee30":           centralGain(t, grid.Case30()),
		"ieee118":          g118,
		"ieee118-shuffled": sparse.ShuffleRows(rng, g118),
		"synth-wecc-12":    centralGain(t, synthWECC(t, 12, 1)),
	} {
		r := make([]float64, g.Rows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		if err := sparse.LDLMatchesOracle(g, r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
