package wls

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
)

// oracleModel meters net with the full SCADA plan plus PMUs (σ 5e-4 angle
// and magnitude) at roughly every tenth bus — weights spread over 2.5
// decades per row and five in the gain — and simulates one noisy frame.
func oracleModel(t *testing.T, net *grid.Network, rng *rand.Rand) *meas.Model {
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

// TestDefaultMatchesDenseOracle checks wls.Options{} — the gain solved by
// the complete LDLᵀ factor's substitution — against the dense LU
// normal-equations oracle in legacyEstimate's Gauss–Newton loop, which
// shares neither the sparse solve path nor the engine's loop: same
// Gauss–Newton trajectory length, states within 1e-8, and no fresh factor
// whose substitution needed a CG polish.
func TestDefaultMatchesDenseOracle(t *testing.T) {
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
			mod := oracleModel(t, net, rng)
			got, err := Estimate(mod, Options{})
			if err != nil {
				t.Fatalf("%s: default: %v", net.Name, err)
			}
			want, err := legacyEstimate(mod, Options{}, nil, oracleDense)
			if err != nil {
				t.Fatalf("%s: dense: %v", net.Name, err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s: %d Gauss–Newton iterations, dense oracle %d", net.Name, got.Iterations, want.Iterations)
			}
			if got.PrecondFallbacks != 0 {
				t.Errorf("%s: %d factorization breakdowns on an observable system", net.Name, got.PrecondFallbacks)
			}
			if got.CGIterations != 0 {
				t.Errorf("%s: %d CG iterations over %d fresh-factor steps (want 0: every substitution passes the residual check)",
					net.Name, got.CGIterations, got.Iterations)
			}
			for k := range want.X {
				if d := math.Abs(got.X[k] - want.X[k]); d > 1e-8 {
					t.Fatalf("%s: x[%d] = %.12g, dense oracle %.12g (|Δ| = %g)", net.Name, k, got.X[k], want.X[k], d)
				}
			}
		}
	}
}
