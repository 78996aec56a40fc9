package meas

import (
	"math"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// gradInputs draws the measured values and weights of a fused pass at x from
// the model's own, then plants the cases the pass treats specially: two
// masked rows (zero weight), a row whose residual is exactly zero, and a row
// that is both.
func gradInputs(mod *Model, x []float64) (z, w []float64) {
	m := mod.NMeas()
	z, w = make([]float64, m), mod.Weights()
	for i, ms := range mod.Meas {
		z[i] = ms.Value
	}
	h := mod.Eval(x)
	w[1], w[m/2] = 0, 0
	z[m/3] = h[m/3]
	z[m/2] = h[m/2]
	return z, w
}

// requireGradMatchesRefresh holds the two spellings of the derivatives
// together: GradInto's h, r, J and gradient at x are, bit for bit, EvalInto,
// z − h, Σ w·r·r and sparse.GainRHSInto over Refresh(x) — and the pass
// leaves H as the last Refresh wrote it.
func requireGradMatchesRefresh(t *testing.T, mod *Model, pl *JacobianPlan, x, z, w []float64) {
	t.Helper()
	m, n := mod.NMeas(), mod.NState()
	wantH, wantR, wr := make([]float64, m), make([]float64, m), make([]float64, m)
	pl.EvalInto(wantH, x)
	sparse.Sub(wantR, z, wantH)
	wantG := make([]float64, n)
	sparse.GainRHSInto(wantG, pl.Refresh(x), w, wantR, wr)
	var wantJ float64
	for i, r := range wantR {
		wantJ += w[i] * r * r
	}
	hVal := append([]float64(nil), pl.H.Val...)

	h, r, grad := make([]float64, m), make([]float64, m), make([]float64, n+1)
	for i := range grad {
		grad[i] = math.NaN() // the pass must clear what it sums into
	}
	j := pl.GradInto(grad, h, r, x, z, w)
	if math.Float64bits(j) != math.Float64bits(wantJ) {
		t.Fatalf("J = %.17g, Σ w·r² = %.17g", j, wantJ)
	}
	for i := range wantH {
		if math.Float64bits(h[i]) != math.Float64bits(wantH[i]) || math.Float64bits(r[i]) != math.Float64bits(wantR[i]) {
			t.Fatalf("row %d (%s): h %v r %v, EvalInto %v z−h %v", i, mod.Meas[i].Key(), h[i], r[i], wantH[i], wantR[i])
		}
	}
	for c := range wantG {
		if math.Float64bits(grad[c]) != math.Float64bits(wantG[c]) {
			t.Fatalf("grad[%d] = %v (%#x), GainRHSInto over Refresh %v (%#x)", c,
				grad[c], math.Float64bits(grad[c]), wantG[c], math.Float64bits(wantG[c]))
		}
	}
	for k, v := range hVal {
		if math.Float64bits(pl.H.Val[k]) != math.Float64bits(v) {
			t.Fatalf("GradInto wrote H.Val[%d]", k)
		}
	}
}

// The reference angle's derivatives have no column: they must land in the
// sink past the last state, and some fixture must have them.
func TestGradSinkTakesReferenceAngle(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	x := mod.StateToVec(truth)
	z, w := gradInputs(mod, x)
	requireGradMatchesRefresh(t, mod, pl, x, z, w)
	sunk := 0
	for _, col := range pl.columns() {
		if int(col) == mod.NState() {
			sunk++
		}
	}
	if sunk == 0 || sunk != len(pl.slots)-pl.H.NNZ() {
		t.Fatalf("%d emissions go to the sink, the pattern has %d without a column", sunk, len(pl.slots)-pl.H.NNZ())
	}
}

// A WithoutBranch view runs the fused pass on the base plan's column map —
// one backing array, whoever asks first — with the outaged branch's flow rows
// masked as the what-if pool masks them.
func TestGradOnOutageView(t *testing.T) {
	for _, n := range []*grid.Network{handBuiltNetwork(t), grid.Case118()} {
		ms := FullPlan().Build(n)
		for i := range ms {
			ms[i].Value = 0.1 * math.Sin(float64(i))
		}
		base, err := NewModel(n, ms, n.SlackIndex(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		basePlan := base.NewJacobianPlan()
		const out = 2
		view, err := base.WithoutBranch(out)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := basePlan.CloneFor(view)
		if err != nil {
			t.Fatal(err)
		}
		x := base.FlatVec()
		for i := range x {
			x[i] += 0.05 * math.Cos(float64(3*i))
		}
		z, w := gradInputs(view, x)
		for i, m := range ms {
			if (m.Kind == Pflow || m.Kind == Qflow) && m.Branch == out {
				w[i] = 0
			}
		}
		requireGradMatchesRefresh(t, view, plan, x, z, w)
		requireGradMatchesRefresh(t, base, basePlan, x, z, w)
		if &plan.columns()[0] != &basePlan.columns()[0] {
			t.Fatalf("%s: the cloned plan built a column map of its own", n.Name)
		}
	}
}

// A pool's clones take their first lagged step at the same time: whichever
// gets there first builds the shared column map, once, and all of them read
// it.
func TestGradColumnMapBuiltUnderConcurrentFirstUse(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	base := mod.NewJacobianPlan()
	x := mod.StateToVec(truth)
	z, w := gradInputs(mod, x)
	grads := make([][]float64, 4)
	var wg sync.WaitGroup
	for g := range grads {
		pl, err := base.CloneFor(mod)
		if err != nil {
			t.Fatal(err)
		}
		grads[g] = make([]float64, mod.NState()+1)
		wg.Add(1)
		go func(grad []float64) {
			defer wg.Done()
			pl.GradInto(grad, make([]float64, mod.NMeas()), make([]float64, mod.NMeas()), x, z, w)
		}(grads[g])
	}
	wg.Wait()
	requireGradMatchesRefresh(t, mod, base, x, z, w)
	want := make([]float64, mod.NState()+1)
	base.GradInto(want, make([]float64, mod.NMeas()), make([]float64, mod.NMeas()), x, z, w)
	for g, grad := range grads {
		for c := range want[:mod.NState()] {
			if math.Float64bits(grad[c]) != math.Float64bits(want[c]) {
				t.Fatalf("clone %d: grad[%d] = %v, serial %v", g, c, grad[c], want[c])
			}
		}
	}
}

func TestGradZeroAlloc(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	xs := [2][]float64{mod.StateToVec(truth), mod.FlatVec()}
	z, w := gradInputs(mod, xs[0])
	h, r, grad := make([]float64, mod.NMeas()), make([]float64, mod.NMeas()), make([]float64, mod.NState()+1)
	pl.GradInto(grad, h, r, xs[0], z, w) // the first pass builds the column map
	loads := pl.TrigEvals()
	i := 0
	if allocs := testing.AllocsPerRun(20, func() { i++; pl.GradInto(grad, h, r, xs[i&1], z, w) }); allocs != 0 {
		t.Fatalf("GradInto with a load allocated %v times per run, want 0", allocs)
	}
	if got := pl.TrigEvals() / loads; got < 20 {
		t.Fatalf("%d loads over 20+ alternating passes: the passes shared a load", got)
	}
}
