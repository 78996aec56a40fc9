package meas

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
)

func solvedCase14(t *testing.T) (*grid.Network, powerflow.State) {
	t.Helper()
	n := grid.Case14()
	res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	return n, res.State
}

func fullModel(t *testing.T, n *grid.Network, truth powerflow.State) *Model {
	t.Helper()
	ms, err := Simulate(n, FullPlan().Build(n), truth, 0, 1)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	ref := n.SlackIndex()
	mod, err := NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return mod
}

func TestEvalMatchesTruthWithZeroNoise(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	h := mod.Eval(mod.StateToVec(truth))
	for i, m := range mod.Meas {
		if math.Abs(h[i]-m.Value) > 1e-12 {
			t.Fatalf("measurement %d (%s): h=%g z=%g", i, m.Key(), h[i], m.Value)
		}
	}
}

func TestInjectionMeasurementsMatchPowerflow(t *testing.T) {
	n, truth := solvedCase14(t)
	p, q := powerflow.Injections(n, truth)
	var ms []Measurement
	for _, b := range n.Buses {
		ms = append(ms,
			Measurement{Kind: Pinj, Bus: b.ID, Sigma: 0.01},
			Measurement{Kind: Qinj, Bus: b.ID, Sigma: 0.01})
	}
	ref := n.SlackIndex()
	mod, err := NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	h := mod.Eval(mod.StateToVec(truth))
	for k, m := range ms {
		i := n.MustIndex(m.Bus)
		want := p[i]
		if m.Kind == Qinj {
			want = q[i]
		}
		if math.Abs(h[k]-want) > 1e-10 {
			t.Fatalf("%s bus %d: %g vs powerflow %g", m.Kind, m.Bus, h[k], want)
		}
	}
}

func TestFlowsSumToInjection(t *testing.T) {
	// Sum of from-side flows on branches incident to a bus (oriented out of
	// the bus) must equal the bus injection when there is no bus shunt.
	n, truth := solvedCase14(t)
	p, _ := powerflow.Injections(n, truth)
	bus := 2 // no shunt at bus 2
	var ms []Measurement
	for bi, br := range n.Branches {
		if br.From == bus {
			ms = append(ms, Measurement{Kind: Pflow, Branch: bi, FromSide: true, Sigma: 0.01})
		}
		if br.To == bus {
			ms = append(ms, Measurement{Kind: Pflow, Branch: bi, FromSide: false, Sigma: 0.01})
		}
	}
	ref := n.SlackIndex()
	mod, err := NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	h := mod.Eval(mod.StateToVec(truth))
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	i := n.MustIndex(bus)
	if math.Abs(sum-p[i]) > 1e-9 {
		t.Fatalf("flow sum %g vs injection %g", sum, p[i])
	}
}

// TestJacobianFiniteDifference is the gold-standard check: every entry of
// the analytic Jacobian must match central finite differences of h(x).
func TestJacobianFiniteDifference(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	x := mod.StateToVec(truth)
	hj := mod.Jacobian(x)

	const eps = 1e-6
	for col := 0; col < mod.NState(); col++ {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[col] += eps
		xm[col] -= eps
		hp := mod.Eval(xp)
		hm := mod.Eval(xm)
		for row := 0; row < mod.NMeas(); row++ {
			fd := (hp[row] - hm[row]) / (2 * eps)
			an := hj.At(row, col)
			if math.Abs(fd-an) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("Jacobian(%d,%d) [%s]: analytic %g vs FD %g",
					row, col, mod.Meas[row].Key(), an, fd)
			}
		}
	}
}

func TestJacobianFiniteDifferenceWithShiftersAndPMU(t *testing.T) {
	// A network with a phase shifter plus PMU angle measurements stresses
	// the asymmetric branch model.
	buses := []grid.Bus{
		{ID: 1, Type: grid.Slack, Vm: 1.02},
		{ID: 2, Type: grid.PQ, Pd: 40, Qd: 10, Vm: 1},
		{ID: 3, Type: grid.PQ, Pd: 30, Qd: 5, Vm: 1},
	}
	branches := []grid.Branch{
		{From: 1, To: 2, R: 0.01, X: 0.08, B: 0.02, Status: true},
		{From: 2, To: 3, R: 0.02, X: 0.1, Tap: 0.97, Shift: 0.05, Status: true},
		{From: 1, To: 3, R: 0.015, X: 0.09, Status: true},
	}
	n, err := grid.New("shifter3", 100, buses, branches, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := FullPlan()
	plan.PMUAt = 1
	ms, err := Simulate(n, plan.Build(n), res.State, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModel(n, ms, 0, res.State.Va[0])
	if err != nil {
		t.Fatal(err)
	}
	x := mod.StateToVec(res.State)
	hj := mod.Jacobian(x)
	const eps = 1e-6
	for col := 0; col < mod.NState(); col++ {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[col] += eps
		xm[col] -= eps
		hp := mod.Eval(xp)
		hm := mod.Eval(xm)
		for row := 0; row < mod.NMeas(); row++ {
			fd := (hp[row] - hm[row]) / (2 * eps)
			an := hj.At(row, col)
			if math.Abs(fd-an) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("Jacobian(%d,%d) [%s]: analytic %g vs FD %g",
					row, col, mod.Meas[row].Key(), an, fd)
			}
		}
	}
}

func TestStateVecRoundTrip(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	st := mod.VecToState(mod.StateToVec(truth))
	for i := range st.Vm {
		if math.Abs(st.Vm[i]-truth.Vm[i]) > 1e-15 || math.Abs(st.Va[i]-truth.Va[i]) > 1e-15 {
			t.Fatalf("round trip mismatch at bus %d", i)
		}
	}
}

// TestStateBus: StateBus names the bus StateToVec packs into each state
// position, with the reference bus away from either end of the bus list.
func TestStateBus(t *testing.T) {
	n := grid.Case14()
	mod, err := NewModel(n, nil, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := powerflow.State{Vm: make([]float64, n.N()), Va: make([]float64, n.N())}
	for b := range st.Vm {
		st.Va[b], st.Vm[b] = float64(b+1), float64(-b-1)
	}
	for i, v := range mod.StateToVec(st) {
		bus, angle := mod.StateBus(i)
		want := st.Vm[bus]
		if angle {
			want = st.Va[bus]
		}
		if v != want || angle && bus == mod.RefBus() {
			t.Errorf("state %d: StateBus says bus %d (angle %v), the vector holds %g", i, bus, angle, v)
		}
	}
}

func TestModelValidation(t *testing.T) {
	n := grid.Case14()
	bad := []struct {
		name string
		ms   []Measurement
	}{
		{"unknown bus", []Measurement{{Kind: Vmag, Bus: 999, Sigma: 0.01}}},
		{"unknown branch", []Measurement{{Kind: Pflow, Branch: 99, Sigma: 0.01}}},
		{"bad kind", []Measurement{{Kind: Kind(99), Bus: 1, Sigma: 0.01}}},
		{"zero sigma", []Measurement{{Kind: Vmag, Bus: 1}}},
	}
	for _, tc := range bad {
		if _, err := NewModel(n, tc.ms, 0, 0); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewModel(n, nil, -1, 0); err == nil {
		t.Error("bad ref index accepted")
	}
}

func TestFullPlanRedundancy(t *testing.T) {
	n := grid.Case14()
	ms := FullPlan().Build(n)
	// V(14) + P,Q inj (28) + P,Q flows both ends (4*20=80) = 122
	if len(ms) != 122 {
		t.Fatalf("full plan has %d measurements, want 122", len(ms))
	}
	r := Redundancy(n, ms)
	if r < 4 || r > 5 {
		t.Fatalf("redundancy %g outside [4,5]", r)
	}
}

func TestRTUPlanDeterministic(t *testing.T) {
	n := grid.Case118()
	a := RTUPlan(7).Build(n)
	b := RTUPlan(7).Build(n)
	if len(a) != len(b) {
		t.Fatalf("same seed, different sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different measurement at %d", i)
		}
	}
	c := RTUPlan(8).Build(n)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical plans")
		}
	}
}

func TestSimulateNoiseStatistics(t *testing.T) {
	n, truth := solvedCase14(t)
	plan := []Measurement{{Kind: Vmag, Bus: 1, Sigma: 0.01}}
	const trials = 2000
	var sum, sumSq float64
	for s := int64(0); s < trials; s++ {
		ms, err := Simulate(n, plan, truth, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		d := ms[0].Value - truth.Vm[n.MustIndex(1)]
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.001 {
		t.Errorf("noise mean %g not ≈ 0", mean)
	}
	if math.Abs(std-0.01) > 0.002 {
		t.Errorf("noise std %g not ≈ 0.01", std)
	}
}

func TestInjectBadData(t *testing.T) {
	ms := []Measurement{{Kind: Vmag, Bus: 1, Sigma: 0.01, Value: 1.0}}
	out, err := InjectBadData(ms, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0].Value-1.2) > 1e-12 {
		t.Fatalf("bad value = %g, want 1.2", out[0].Value)
	}
	if ms[0].Value != 1.0 {
		t.Fatal("InjectBadData mutated input")
	}
	if _, err := InjectBadData(ms, 5, 20); err == nil {
		t.Fatal("out of range index accepted")
	}
}

func TestMeasurementKey(t *testing.T) {
	m1 := Measurement{Kind: Pflow, Branch: 3, FromSide: true}
	m2 := Measurement{Kind: Pflow, Branch: 3, FromSide: false}
	if m1.Key() == m2.Key() {
		t.Fatal("from/to sides must have distinct keys")
	}
	m3 := Measurement{Kind: Vmag, Bus: 7}
	if m3.Key() != "V:bus7" {
		t.Fatalf("key = %q", m3.Key())
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{Vmag: "V", Pinj: "Pinj", Qinj: "Qinj", Pflow: "Pflow", Qflow: "Qflow", Angle: "Angle"}
	for k, s := range kinds {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
