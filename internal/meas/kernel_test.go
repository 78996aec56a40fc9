package meas

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// handBuiltNetwork exercises what the IEEE cases leave out: a phase shifter,
// an off-nominal tap, a lossless transformer (exact-zero conductances, so
// signed zeros reach H at a flat start), two parallel circuits, a branch
// listed against the bus order, and a slack bus that is not bus 0.
func handBuiltNetwork(t testing.TB) *grid.Network {
	t.Helper()
	buses := []grid.Bus{
		{ID: 10, Type: grid.PQ, Pd: 30, Qd: 8, Vm: 1},
		{ID: 20, Type: grid.PQ, Pd: 25, Qd: 5, Vm: 1, Gs: 2, Bs: 6},
		{ID: 30, Type: grid.Slack, Vm: 1.03},
		{ID: 40, Type: grid.PQ, Pd: 40, Qd: 12, Vm: 1},
		{ID: 50, Type: grid.PQ, Pd: 15, Qd: 4, Vm: 1},
	}
	branches := []grid.Branch{
		{From: 10, To: 20, R: 0.01, X: 0.08, B: 0.02, Status: true},
		{From: 10, To: 20, R: 0.012, X: 0.09, B: 0.018, Status: true}, // parallel circuit
		{From: 20, To: 30, R: 0.02, X: 0.1, Tap: 0.97, Shift: 0.05, Status: true},
		{From: 40, To: 30, R: 0, X: 0.12, Tap: 1.04, Status: true}, // lossless, against bus order
		{From: 40, To: 50, R: 0.015, X: 0.09, B: 0.01, Shift: -0.03, Status: true},
		{From: 50, To: 10, R: 0.02, X: 0.11, Status: true},
		{From: 20, To: 50, R: 0.03, X: 0.2, Status: false}, // out of service
	}
	gens := []grid.Gen{{Bus: 30, Vset: 1.03, Status: true}}
	n, err := grid.New("hand5", 100, buses, branches, gens)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// requireKernelMatchesReference checks the compiled kernel, through every
// one of its four entry points, against the reference evaluator at x: same
// bits in h, same pattern and same bits in H.
func requireKernelMatchesReference(t *testing.T, mod *Model, pl *JacobianPlan, x []float64) {
	t.Helper()
	wantH := refEval(mod, x)
	got := make([]float64, mod.NMeas())
	pl.EvalInto(got, x)
	for _, h := range [][]float64{got, mod.Eval(x)} {
		for i := range wantH {
			if math.Float64bits(h[i]) != math.Float64bits(wantH[i]) {
				t.Fatalf("h[%d] (%s): kernel %v (%#x) != reference %v (%#x)", i, mod.Meas[i].Key(),
					h[i], math.Float64bits(h[i]), wantH[i], math.Float64bits(wantH[i]))
			}
		}
	}
	wantJ := refJacobian(mod, x)
	for name, hj := range map[string]*sparse.CSR{"Refresh": pl.Refresh(x), "Jacobian": mod.Jacobian(x)} {
		if len(hj.RowPtr) != len(wantJ.RowPtr) || len(hj.ColIdx) != len(wantJ.ColIdx) {
			t.Fatalf("%s: pattern of %d rows %d entries, reference %d rows %d entries",
				name, hj.Rows, hj.NNZ(), wantJ.Rows, wantJ.NNZ())
		}
		for i := range hj.RowPtr {
			if hj.RowPtr[i] != wantJ.RowPtr[i] {
				t.Fatalf("%s: RowPtr[%d] = %d, reference %d", name, i, hj.RowPtr[i], wantJ.RowPtr[i])
			}
		}
		for k, col := range hj.ColIdx {
			if col != wantJ.ColIdx[k] {
				t.Fatalf("%s: ColIdx[%d] = %d, reference %d", name, k, col, wantJ.ColIdx[k])
			}
			if math.Float64bits(hj.Val[k]) != math.Float64bits(wantJ.Val[k]) {
				t.Fatalf("%s: Val[%d] (col %d) = %v (%#x), reference %v (%#x)", name, k, col,
					hj.Val[k], math.Float64bits(hj.Val[k]), wantJ.Val[k], math.Float64bits(wantJ.Val[k]))
			}
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	full := FullPlan()
	full.PMUAt, full.Seed = 0.3, 2
	flowsOnly := PlanOptions{VoltageAt: 1, FlowsAt: 0.7, PMUAt: 0.2, Seed: 6}
	for _, n := range []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118(), wecc, handBuiltNetwork(t)} {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			t.Fatalf("%s: powerflow: %v", n.Name, err)
		}
		for pi, plan := range []PlanOptions{full, RTUPlan(5), flowsOnly} {
			ms, err := Simulate(n, plan.Build(n), pf.State, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			ref := n.SlackIndex()
			mod, err := NewModel(n, ms, ref, pf.State.Va[ref])
			if err != nil {
				t.Fatal(err)
			}
			pl := mod.NewJacobianPlan()
			truth := mod.StateToVec(pf.State)
			rng := rand.New(rand.NewSource(int64(17 + pi)))
			perturbed := append([]float64(nil), truth...)
			for i := range perturbed {
				perturbed[i] += 0.2 * (rng.Float64() - 0.5)
			}
			for _, x := range [][]float64{mod.FlatVec(), truth, perturbed} {
				requireKernelMatchesReference(t, mod, pl, x)
				z, w := gradInputs(mod, x)
				requireGradMatchesRefresh(t, mod, pl, x, z, w)
			}
		}
	}
}

// A measurement set with no injection reads only the pairs under its metered
// flows, and a PMU-only set reads none: the load's cost follows the
// measurement set, as the per-measurement evaluator's did.
func TestKernelLoadsOnlyMeteredPairs(t *testing.T) {
	n, truth := solvedCase14(t)
	ref := n.SlackIndex()
	ms := []Measurement{
		{Kind: Vmag, Bus: 1, Sigma: 0.01},
		{Kind: Angle, Bus: 2, Sigma: 0.01},
		{Kind: Pflow, Branch: 0, FromSide: true, Sigma: 0.01},
		{Kind: Qflow, Branch: 0, FromSide: true, Sigma: 0.01},
		{Kind: Pflow, Branch: 0, FromSide: false, Sigma: 0.01},
	}
	mod, err := NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	trigPerLoad := func(mod *Model) int {
		pl := mod.NewJacobianPlan()
		pl.EvalInto(make([]float64, mod.NMeas()), mod.FlatVec())
		return pl.TrigEvals()
	}
	if got := trigPerLoad(mod); got != 2 {
		t.Fatalf("one metered branch: %d trig evaluations per load, want 2", got)
	}
	mod, err = NewModel(n, ms[:2], ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	if got := trigPerLoad(mod); got != 0 {
		t.Fatalf("PMU-only set: %d trig evaluations per load, want 0", got)
	}
}

func TestStateLoadSharedAtOneState(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	x := mod.StateToVec(truth)
	h := make([]float64, mod.NMeas())

	alone := mod.NewJacobianPlan()
	want := append([]float64(nil), alone.Refresh(x).Val...)

	pl := mod.NewJacobianPlan()
	pl.EvalInto(h, x)
	oneLoad := pl.TrigEvals()
	got := pl.Refresh(x).Val
	pl.EvalInto(h, x)
	if oneLoad == 0 || pl.TrigEvals() != oneLoad {
		t.Fatalf("EvalInto, Refresh, EvalInto at one state evaluated %d sines and cosines, one load is %d", pl.TrigEvals(), oneLoad)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("H.Val[%d] after a shared load %v != Refresh alone %v", k, got[k], want[k])
		}
	}
}

// A load must never outlive the input it was made from: the reference
// angle, the bound model and the contents of x are all inputs.
func TestStateLoadInvalidation(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	x := mod.StateToVec(truth)
	h := make([]float64, mod.NMeas())
	requireFresh := func(what string, mod *Model) {
		t.Helper()
		before := append([]float64(nil), h...)
		pl.EvalInto(h, x)
		changed := false
		for i, want := range mod.Eval(x) {
			if math.Float64bits(h[i]) != math.Float64bits(want) {
				t.Fatalf("after %s: EvalInto[%d] = %v, a fresh Eval gives %v", what, i, h[i], want)
			}
			changed = changed || h[i] != before[i]
		}
		if !changed {
			t.Fatalf("after %s: h(x) did not move, the case tests nothing", what)
		}
		requireBitwiseJacobian(t, pl.Refresh(x), refJacobian(mod, x), x)
	}
	pl.EvalInto(h, x)

	mod.SetRefAngle(mod.RefAngle() + 0.1)
	requireFresh("SetRefAngle", mod)

	x[3] += 0.05 // same slice, edited in place
	requireFresh("an in-place edit of x", mod)

	other := fullModel(t, n, truth)
	other.SetRefAngle(-0.2)
	if err := pl.Rebind(other); err != nil {
		t.Fatal(err)
	}
	requireFresh("Rebind", other)
}

// The existing zero-alloc test repeats one state, which the plan now serves
// from the load it already has; this one alternates states so every call
// runs the load too.
func TestStateLoadZeroAlloc(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	xs := [2][]float64{mod.StateToVec(truth), mod.FlatVec()}
	h := make([]float64, mod.NMeas())
	pl.EvalInto(h, xs[0])
	oneLoad := pl.TrigEvals()
	i := 0
	if allocs := testing.AllocsPerRun(20, func() { i++; pl.EvalInto(h, xs[i&1]) }); allocs != 0 {
		t.Fatalf("EvalInto with a load allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { i++; pl.Refresh(xs[i&1]) }); allocs != 0 {
		t.Fatalf("Refresh with a load allocated %v times per run, want 0", allocs)
	}
	if loads := pl.TrigEvals() / oneLoad; loads < 40 {
		t.Fatalf("%d loads over 40+ alternating calls: the calls shared a load", loads)
	}
}

func TestBadMeasurementRejected(t *testing.T) {
	n, truth := solvedCase14(t)
	ref := n.SlackIndex()
	good := fullModel(t, n, truth).Meas
	for _, tc := range []struct {
		name   string
		mutate func(m *Measurement)
	}{
		{"NaN value", func(m *Measurement) { m.Value = math.NaN() }},
		{"+Inf value", func(m *Measurement) { m.Value = math.Inf(1) }},
		{"-Inf value", func(m *Measurement) { m.Value = math.Inf(-1) }},
		{"NaN sigma", func(m *Measurement) { m.Sigma = math.NaN() }},
		{"Inf sigma", func(m *Measurement) { m.Sigma = math.Inf(1) }},
		{"zero sigma", func(m *Measurement) { m.Sigma = 0 }},
		{"negative sigma", func(m *Measurement) { m.Sigma = -0.01 }},
	} {
		ms := append([]Measurement(nil), good...)
		tc.mutate(&ms[7])
		_, err := NewModel(n, ms, ref, truth.Va[ref])
		if !errors.Is(err, ErrBadMeasurement) {
			t.Errorf("NewModel with %s: %v, want ErrBadMeasurement", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), "measurement 7") || !strings.Contains(err.Error(), ms[7].Key()) {
			t.Errorf("NewModel with %s: error %q names neither index nor key", tc.name, err)
		}
	}

	mod := fullModel(t, n, truth)
	fresh := append([]Measurement(nil), mod.Meas...)
	fresh[0].Value = 0.5
	fresh[7].Value = math.NaN()
	if err := mod.UpdateValues(fresh); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("UpdateValues with a NaN value: %v, want ErrBadMeasurement", err)
	}
	if mod.Meas[0].Value == 0.5 {
		t.Fatal("a rejected UpdateValues changed the model")
	}
}

func TestZeroImpedanceBranchRejected(t *testing.T) {
	n := grid.Case14().Clone()
	n.Branches[4].R, n.Branches[4].X = 0, 0
	_, err := NewModel(n, []Measurement{{Kind: Vmag, Bus: 1, Sigma: 0.01}}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "branch 4") {
		t.Fatalf("in-service R = X = 0 branch: %v, want an error naming branch 4", err)
	}
	n.Branches[4].Status = false
	if _, err := NewModel(n, []Measurement{{Kind: Vmag, Bus: 1, Sigma: 0.01}}, 0, 0); err != nil {
		t.Fatalf("out-of-service R = X = 0 branch: %v, want it ignored", err)
	}
}
