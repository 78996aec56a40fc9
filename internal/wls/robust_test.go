package wls

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

func TestRobustMatchesWLSOnCleanData(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 61)
	wlsRes, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rob, err := EstimateRobust(mod, RobustOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With K=3 and clean Gaussian data the Huber estimate ~= WLS.
	for i := range wlsRes.X {
		if math.Abs(wlsRes.X[i]-rob.X[i]) > 1e-3 {
			t.Fatalf("x[%d]: WLS %v vs Huber %v", i, wlsRes.X[i], rob.X[i])
		}
	}
}

func TestRobustSuppressesGrossError(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 67)
	const corrupt = 40
	bad, err := meas.InjectBadData(mod.Meas, corrupt, 30)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	badMod, err := meas.NewModel(n, bad, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}

	wlsRes, err := Estimate(badMod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rob, err := EstimateRobust(badMod, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wlsVm, _ := maxStateError(wlsRes.State, truth)
	robVm, _ := maxStateError(rob.State, truth)
	if robVm >= wlsVm {
		t.Errorf("Huber error %g not better than WLS %g under a 30-sigma gross error", robVm, wlsVm)
	}
	// The corrupted measurement must be among the down-weighted ones.
	found := false
	for _, i := range rob.Downweighted {
		if i == corrupt {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupted measurement %d not down-weighted (got %v)", corrupt, rob.Downweighted)
	}
	if rob.Reweights < 2 {
		t.Errorf("expected multiple IRLS rounds, got %d", rob.Reweights)
	}
}

func TestRobustMultipleGrossErrors(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 71)
	ms := mod.Meas
	for _, idx := range []int{10, 200, 400} {
		var err error
		ms, err = meas.InjectBadData(ms, idx, 25)
		if err != nil {
			t.Fatal(err)
		}
	}
	ref := n.SlackIndex()
	badMod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	rob, err := EstimateRobust(badMod, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dvm, _ := maxStateError(rob.State, truth)
	if dvm > 0.02 {
		t.Errorf("Huber error %g with 3 gross errors", dvm)
	}
	if len(rob.Downweighted) < 3 {
		t.Errorf("only %d measurements down-weighted", len(rob.Downweighted))
	}
}

// TestRobustWithQRInner runs EstimateRobust's IRLS rounds (K 1.5, state
// tolerance 1e-6) with every inner solve by the QR oracle's Gauss–Newton
// loop: the same round count, the same down-weighted set, states within
// 1e-8.
func TestRobustWithQRInner(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 73)
	rob, err := EstimateRobust(mod, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dvm, _ := maxStateError(rob.State, truth)
	if dvm > 0.01 {
		t.Errorf("error %g", dvm)
	}

	scale := make([]float64, mod.NMeas())
	for i := range scale {
		scale[i] = 1
	}
	var want *Result
	step := make([]float64, mod.NState())
	rounds := 0
	for rounds < 15 {
		prev := want
		if want, err = legacyEstimate(mod, Options{}, scale, oracleQR); err != nil {
			t.Fatal(err)
		}
		rounds++
		if prev != nil {
			if sparse.Sub(step, want.X, prev.X); sparse.NormInf(step) < 1e-6 {
				break
			}
		}
		for i, m := range mod.Meas {
			scale[i] = min(1, 1.5/(math.Abs(want.Residuals[i])/m.Sigma))
		}
	}
	var down []int
	for i, s := range scale {
		if s < 1 {
			down = append(down, i)
		}
	}
	if rounds != rob.Reweights || !slices.Equal(down, rob.Downweighted) {
		t.Errorf("QR inner: %d rounds, down-weighted %v; EstimateRobust: %d, %v", rounds, down, rob.Reweights, rob.Downweighted)
	}
	for i := range want.X {
		if d := math.Abs(rob.X[i] - want.X[i]); d > 1e-8 {
			t.Fatalf("x[%d]: EstimateRobust %v vs QR inner %v (|Δ| = %g)", i, rob.X[i], want.X[i], d)
		}
	}
}

// TestRobustReportsIRLSCap: a state still moving when the IRLS cap is hit
// is ErrRobustNotConverged, with the last round's result, as Estimate
// reports its own cap. The gross-error fixture settles in 8 rounds.
func TestRobustReportsIRLSCap(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	bad, err := meas.InjectBadData(buildModel(t, n, truth, 1, 67).Meas, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, bad, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	rob, err := EstimateRobust(mod, RobustOptions{MaxReweights: 2})
	if !errors.Is(err, ErrRobustNotConverged) || rob == nil || rob.Result == nil || rob.Reweights != 2 {
		t.Fatalf("MaxReweights 2: err = %v, result %+v", err, rob)
	}
	if rob, err = EstimateRobust(mod, RobustOptions{}); err != nil || rob.Reweights <= 2 {
		t.Fatalf("default cap: err = %v after %d rounds", err, rob.Reweights)
	}
}
