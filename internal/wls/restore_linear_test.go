package wls

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
)

// unobservableModel strips every measurement involving bus 14's angle
// (cf. TestEstimateUnobservableRankDeficient).
func unobservableModel(t *testing.T) (*meas.Model, *grid.Network) {
	t.Helper()
	n := grid.Case14()
	truth := solved(t, n)
	full := meas.FullPlan().Build(n)
	var ms []meas.Measurement
	for _, m := range full {
		switch m.Kind {
		case meas.Pinj, meas.Qinj:
			if m.Bus == 14 || m.Bus == 9 || m.Bus == 13 {
				continue
			}
		case meas.Pflow, meas.Qflow:
			br := n.Branches[m.Branch]
			if br.From == 14 || br.To == 14 {
				continue
			}
		}
		ms = append(ms, m)
	}
	sim, err := meas.Simulate(n, ms, truth, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, sim, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	return mod, n
}

func TestRestoreObservabilityMakesSolvable(t *testing.T) {
	mod, n := unobservableModel(t)
	if _, err := Estimate(mod, Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("fixture should be unobservable: %v", err)
	}
	augmented, added := RestoreObservability(mod)
	if len(added) == 0 {
		t.Fatal("nothing added for unobservable set")
	}
	ref := n.SlackIndex()
	truth := solved(t, n)
	augMod, err := meas.NewModel(n, augmented, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	if obs := CheckObservability(augMod); !obs.Observable {
		t.Fatalf("still unobservable after restoration (rank %d/%d)", obs.Rank, obs.NState)
	}
	res, err := Estimate(augMod, Options{})
	if err != nil {
		t.Fatalf("estimate after restoration: %v", err)
	}
	// Observable region must remain accurate; bus 14 is pinned to the
	// pseudo prior, so exclude it.
	for i, b := range n.Buses {
		if b.ID == 14 {
			continue
		}
		if d := math.Abs(res.State.Vm[i] - truth.Vm[i]); d > 1e-4 {
			t.Errorf("bus %d Vm error %g after restoration", b.ID, d)
		}
	}
}

func TestRestoreObservabilityNoopWhenObservable(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 0, 1)
	out, added := RestoreObservability(mod)
	if len(added) != 0 {
		t.Fatalf("added %d pseudos to an observable set", len(added))
	}
	if len(out) != len(mod.Meas) {
		t.Fatal("measurement set changed")
	}
}

func TestLinearPMUEstimateOneShot(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	plan := PMUOnlyPlan(n, 0.001)
	ms, err := meas.Simulate(n, plan, truth, 1, 91)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	res, err := LinearPMUEstimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("linear estimation took %d iterations", res.Iterations)
	}
	dvm, dva := maxStateError(res.State, truth)
	if dvm > 0.005 || dva > 0.005 {
		t.Fatalf("PMU estimate error Vm=%g Va=%g", dvm, dva)
	}
}

func TestLinearPMUMatchesGaussNewton(t *testing.T) {
	n := grid.Case30()
	truth := solved(t, n)
	ms, err := meas.Simulate(n, PMUOnlyPlan(n, 0.001), truth, 1, 93)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	lin, err := LinearPMUEstimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gn, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lin.X {
		if math.Abs(lin.X[i]-gn.X[i]) > 1e-8 {
			t.Fatalf("x[%d]: linear %v vs GN %v", i, lin.X[i], gn.X[i])
		}
	}
}

func TestLinearPMURejectsNonPhasor(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 0, 1) // full plan includes flows
	if _, err := LinearPMUEstimate(mod, Options{}); err == nil {
		t.Fatal("non-phasor measurements accepted")
	}
}

// TestLinearPMUWithQR: the one-shot phasor solve against one Givens QR step
// of the same linear model from flat start.
func TestLinearPMUWithQR(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	ms, err := meas.Simulate(n, PMUOnlyPlan(n, 0.001), truth, 1, 97)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	res, err := LinearPMUEstimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dvm, _ := maxStateError(res.State, truth)
	if dvm > 0.005 {
		t.Fatalf("error %g", dvm)
	}
	x := mod.FlatVec()
	r := mod.Eval(x)
	for i, m := range mod.Meas {
		r[i] = m.Value - r[i]
	}
	dx, err := solveQR(mod.Jacobian(x), mod.Weights(), r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] + dx[i] - res.X[i]); d > 1e-10 {
			t.Fatalf("x[%d] = %.12g, QR %.12g (|Δ| = %g)", i, res.X[i], x[i]+dx[i], d)
		}
	}
}

// TestLinearPMUUntouchedState: a PMU plan that reads bus 5's magnitude
// twice and its angle never still has m = n + 1 rows, but nothing moves θ5;
// the one-shot solve must say so rather than fail inside the factor.
func TestLinearPMUUntouchedState(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	plan := PMUOnlyPlan(n, 0.001)
	for i, m := range plan {
		if m.Kind == meas.Angle && m.Bus == 5 {
			plan[i].Kind = meas.Vmag
		}
	}
	ms, err := meas.Simulate(n, plan, truth, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinearPMUEstimate(mod, Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
}
