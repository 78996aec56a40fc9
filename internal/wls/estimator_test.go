package wls

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
)

func solved(t *testing.T, n *grid.Network) powerflow.State {
	t.Helper()
	res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow %s: %v", n.Name, err)
	}
	return res.State
}

func buildModel(t *testing.T, n *grid.Network, truth powerflow.State, noise float64, seed int64) *meas.Model {
	t.Helper()
	ms, err := meas.Simulate(n, meas.FullPlan().Build(n), truth, noise, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func maxStateError(est, truth powerflow.State) (dvm, dva float64) {
	for i := range truth.Vm {
		if d := math.Abs(est.Vm[i] - truth.Vm[i]); d > dvm {
			dvm = d
		}
		if d := math.Abs(est.Va[i] - truth.Va[i]); d > dva {
			dva = d
		}
	}
	return
}

func TestEstimateRecoversExactStateNoiseless(t *testing.T) {
	for _, mk := range []func() *grid.Network{grid.Case14, grid.Case30, grid.Case118} {
		n := mk()
		truth := solved(t, n)
		mod := buildModel(t, n, truth, 0, 1)
		res, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		dvm, dva := maxStateError(res.State, truth)
		if dvm > 1e-7 || dva > 1e-7 {
			t.Fatalf("%s: max error Vm=%g Va=%g with perfect measurements", n.Name, dvm, dva)
		}
		if res.ObjectiveJ > 1e-10 {
			t.Errorf("%s: J = %g, want ~0 for perfect measurements", n.Name, res.ObjectiveJ)
		}
	}
}

func TestEstimateWithNoiseCloseToTruth(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 42)
	res, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	dvm, dva := maxStateError(res.State, truth)
	// With ~0.5-1% meter noise and 4x redundancy the estimate should land
	// within a fraction of the meter sigma.
	if dvm > 0.01 {
		t.Errorf("max Vm error %g too large", dvm)
	}
	if dva > 0.01 {
		t.Errorf("max Va error %g rad too large", dva)
	}
	// Estimation must beat the raw measurements: J(x̂) ≈ m−n in expectation.
	dof := float64(mod.NMeas() - mod.NState())
	if res.ObjectiveJ > 2*dof {
		t.Errorf("J = %g, expected around dof = %g", res.ObjectiveJ, dof)
	}
}

// TestPCGMatchesDenseSolver: both gain solves against the dense LU oracle.
func TestPCGMatchesDenseSolver(t *testing.T) {
	n := grid.Case30()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 7)
	rp, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := legacyEstimate(mod, Options{}, nil, oracleDense)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rp.X {
		if math.Abs(rp.X[i]-rd.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: default %g vs dense %g", i, rp.X[i], rd.X[i])
		}
	}
	if rp.CGIterations != 0 || rp.PrecondFallbacks != 0 {
		t.Errorf("default path: %d CG iterations, %d factorization breakdowns (want the factor's substitution alone)",
			rp.CGIterations, rp.PrecondFallbacks)
	}
	rj, err := Estimate(mod, Options{Precond: PrecondJacobi})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rj.X {
		if math.Abs(rj.X[i]-rd.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: Jacobi PCG %g vs dense %g", i, rj.X[i], rd.X[i])
		}
	}
	if rj.CGIterations == 0 {
		t.Error("PCG path reported zero CG iterations")
	}
}

func TestAllPreconditionersAgree(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 9)
	var ref *Result
	for _, p := range []PrecondKind{PrecondJacobi, PrecondLDL} {
		res, err := Estimate(mod, Options{Precond: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res.X {
			if math.Abs(res.X[i]-ref.X[i]) > 1e-5 {
				t.Fatalf("%v: x[%d] differs from reference: %g vs %g", p, i, res.X[i], ref.X[i])
			}
		}
	}
}

func TestEstimateParallelWorkersAgree(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 11)
	r1, err := Estimate(mod, Options{Precond: PrecondJacobi, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Estimate(mod, Options{Precond: PrecondJacobi, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Abs(r1.X[i]-r8.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: workers=1 %g vs workers=8 %g", i, r1.X[i], r8.X[i])
		}
	}
}

func TestEstimateUnobservableFewMeasurements(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	// Only voltage magnitudes: m = 14 < n = 27, plainly unobservable.
	var ms []meas.Measurement
	for _, b := range n.Buses {
		ms = append(ms, meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 0.004, Value: 1})
	}
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(mod, Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
}

func TestEstimateUnobservableRankDeficient(t *testing.T) {
	// m >= n but structurally rank-deficient: no measurement involves bus
	// 14's voltage angle. Bus 14 connects only to buses 9 and 13, so drop
	// the injections at 9, 13, 14 and the flows on branches touching 14;
	// only the Vmag meter at 14 remains, which pins V14 but not θ14.
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
	if _, err := Estimate(mod, Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
	obs := CheckObservability(mod)
	if obs.Observable {
		t.Fatal("observability check claims observable for isolated bus state")
	}
	if obs.Rank >= obs.NState {
		t.Fatalf("rank %d should be < %d", obs.Rank, obs.NState)
	}
	if len(obs.WeakStates) == 0 {
		t.Fatal("no weak states reported")
	}
}

// TestCheckObservabilityFullPlan: a fully metered network is observable
// whatever its meters' sigmas, one voltage meter as stiff as σ 1e-11
// included, and restoration adds nothing to it. A check that weighs the
// meters reads the stiff sets as rank-deficient.
func TestCheckObservabilityFullPlan(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() *grid.Network
	}{{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118}} {
		n := c.mk()
		truth := solved(t, n)
		for _, sigma := range []float64{0, 1e-8, 1e-11} {
			t.Run(fmt.Sprintf("%s/sigma=%g", c.name, sigma), func(t *testing.T) {
				ms, err := meas.Simulate(n, meas.FullPlan().Build(n), truth, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if sigma > 0 { // 0 keeps the plan's own sigmas
					ms[slices.IndexFunc(ms, func(m meas.Measurement) bool { return m.Kind == meas.Vmag })].Sigma = sigma
				}
				ref := n.SlackIndex()
				mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
				if err != nil {
					t.Fatal(err)
				}
				if obs := CheckObservability(mod); !obs.Observable || obs.Rank != obs.NState {
					t.Fatalf("full plan must be observable: rank %d / %d, weak %v", obs.Rank, obs.NState, obs.WeakStates)
				}
				if _, added := RestoreObservability(mod); len(added) != 0 {
					t.Fatalf("restoration added %d pseudo-measurements to a full plan", len(added))
				}
			})
		}
	}
}

func TestWarmStartFewerIterations(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 13)
	cold, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Estimate(mod, Options{X0: cold.X})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}

func TestChiSquareCleanVsBadData(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 17)
	res, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, suspect, err := ChiSquareTest(res, mod, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if suspect {
		t.Fatalf("clean data flagged as bad (J=%g)", res.ObjectiveJ)
	}
	// Corrupt one flow by 25 sigma.
	bad, err := meas.InjectBadData(mod.Meas, 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	badMod, err := meas.NewModel(n, bad, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	badRes, err := Estimate(badMod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, suspect, err = ChiSquareTest(badRes, badMod, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !suspect {
		t.Fatalf("25-sigma gross error not detected (J=%g)", badRes.ObjectiveJ)
	}
}

func TestIdentifyBadDataFindsCorruptMeasurement(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 19)
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
	removed, clean, err := IdentifyBadData(badMod, Options{}, 3.0, 3)
	if err != nil {
		t.Fatalf("identify: %v", err)
	}
	found := false
	for _, b := range removed {
		if b.Index == corrupt {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted measurement %d not identified; removed %+v", corrupt, removed)
	}
	dvm, _ := maxStateError(clean.State, truth)
	if dvm > 0.01 {
		t.Errorf("post-identification estimate error %g", dvm)
	}
}

func TestNormalizedResidualsCleanBelowThreshold(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 23)
	res, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NormalizedResiduals(res, mod)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for _, v := range rn {
		if v > 4 {
			over++
		}
	}
	if over > 0 {
		t.Errorf("%d of %d clean normalized residuals above 4", over, len(rn))
	}
}

func TestChiSquareQuantileSanity(t *testing.T) {
	// χ²(10) 0.99 quantile ≈ 23.21; χ²(100) 0.95 ≈ 124.34.
	if q := chiSquareQuantile(10, 0.99); math.Abs(q-23.21) > 0.7 {
		t.Errorf("chi2(10, .99) = %g, want ≈23.2", q)
	}
	if q := chiSquareQuantile(100, 0.95); math.Abs(q-124.34) > 1.5 {
		t.Errorf("chi2(100, .95) = %g, want ≈124.3", q)
	}
}

func TestChiSquareTestValidation(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 0, 1)
	res, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChiSquareTest(res, mod, 1.5); err == nil {
		t.Error("confidence > 1 accepted")
	}
}

func TestPrecondKindString(t *testing.T) {
	if PrecondJacobi.String() != "jacobi" || PrecondLDL.String() != "ldl" {
		t.Fatal("PrecondKind.String")
	}
}

func TestEstimateIterationCap(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 29)
	_, err := Estimate(mod, Options{MaxIter: 1, Tol: 1e-12})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

// TestZeroInjectionVirtualMeasurements: zero-injection buses (no load, no
// generation) can be enforced as near-exact virtual measurements — the
// standard trick for topology-only knowledge. The estimate must improve at
// and around those buses.
func TestZeroInjectionVirtualMeasurements(t *testing.T) {
	n := grid.Case14()
	truth := solved(t, n)
	// Bus 7 is a pure transit bus (no load, no generation).
	plan := meas.FullPlan().Build(n)
	var trimmed []meas.Measurement
	for _, m := range plan {
		// Remove the telemetered injections at bus 7 to create the gap the
		// virtual measurements will fill.
		if (m.Kind == meas.Pinj || m.Kind == meas.Qinj) && m.Bus == 7 {
			continue
		}
		trimmed = append(trimmed, m)
	}
	base, err := meas.Simulate(n, trimmed, truth, 1, 53)
	if err != nil {
		t.Fatal(err)
	}
	withVirtual := append(append([]meas.Measurement(nil), base...),
		meas.Measurement{Kind: meas.Pinj, Bus: 7, Sigma: 1e-5, Value: 0},
		meas.Measurement{Kind: meas.Qinj, Bus: 7, Sigma: 1e-5, Value: 0})

	ref := n.SlackIndex()
	estimate := func(ms []meas.Measurement) *Result {
		mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
		if err != nil {
			t.Fatal(err)
		}
		res, err := Estimate(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := estimate(base)
	virt := estimate(withVirtual)
	i7 := n.MustIndex(7)
	ePlain := math.Abs(plain.State.Va[i7] - truth.Va[i7])
	eVirt := math.Abs(virt.State.Va[i7] - truth.Va[i7])
	if eVirt > ePlain+1e-9 {
		t.Errorf("virtual zero injection worsened bus 7: %g -> %g", ePlain, eVirt)
	}
	t.Logf("bus-7 angle error: without virtual %g, with virtual %g", ePlain, eVirt)
}

// TestX0GateRejectsBadStart: with a gate set, an X0 whose weighted
// residual exceeds gate x J(flat) is discarded — the solve must reproduce
// the flat-start result exactly — while a good X0 passes the gate and
// saves iterations.
func TestX0GateRejectsBadStart(t *testing.T) {
	n := grid.Case118()
	truth := solved(t, n)
	mod := buildModel(t, n, truth, 1, 13)
	flat, err := Estimate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}

	bad := make([]float64, mod.NState())
	for i := range bad {
		bad[i] = 3 // absurd operating point: 3 pu / 3 rad everywhere
	}
	gated, err := Estimate(mod, Options{X0: bad, X0Gate: WarmStartGate})
	if err != nil {
		t.Fatal(err)
	}
	if gated.Iterations != flat.Iterations {
		t.Errorf("gated bad start took %d iterations, flat start %d — gate did not reject", gated.Iterations, flat.Iterations)
	}
	for i := range flat.X {
		if gated.X[i] != flat.X[i] {
			t.Fatalf("gated bad start diverged from flat start at state %d", i)
		}
	}

	good, err := Estimate(mod, Options{X0: flat.X, X0Gate: WarmStartGate})
	if err != nil {
		t.Fatal(err)
	}
	if good.Iterations > flat.Iterations {
		t.Errorf("gated good start took %d iterations vs %d flat — gate rejected a good X0", good.Iterations, flat.Iterations)
	}
}

// TestCountersAddSumsEveryField gives every field of two Counters its own
// value and checks Add sums each one, so a counter added to the struct
// without its line in Add fails here.
func TestCountersAddSumsEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(1 + i))
		vb.Field(i).SetInt(int64(100 * (1 + i)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(1+i)); got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
