package meas

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// requireBitwiseJacobian checks that the plan's refreshed H matches a fresh
// Jacobian(x) bitwise at every shared entry, and that plan-only entries
// (structural positions the legacy assembly dropped for being exactly zero)
// are exact zeros.
func requireBitwiseJacobian(t *testing.T, plan, fresh *sparse.CSR, x []float64) {
	t.Helper()
	if plan.Rows != fresh.Rows || plan.Cols != fresh.Cols {
		t.Fatalf("dims: plan %dx%d fresh %dx%d", plan.Rows, plan.Cols, fresh.Rows, fresh.Cols)
	}
	for i := 0; i < plan.Rows; i++ {
		fk := fresh.RowPtr[i]
		for pk := plan.RowPtr[i]; pk < plan.RowPtr[i+1]; pk++ {
			col, v := plan.ColIdx[pk], plan.Val[pk]
			if fk < fresh.RowPtr[i+1] && fresh.ColIdx[fk] == col {
				if math.Float64bits(v) != math.Float64bits(fresh.Val[fk]) {
					t.Fatalf("row %d col %d: plan %v (%#x) != fresh %v (%#x)",
						i, col, v, math.Float64bits(v), fresh.Val[fk], math.Float64bits(fresh.Val[fk]))
				}
				fk++
			} else if v != 0 {
				t.Fatalf("row %d col %d: plan-only entry %v, want exact zero", i, col, v)
			}
		}
		if fk != fresh.RowPtr[i+1] {
			t.Fatalf("row %d: fresh Jacobian has entries missing from plan pattern", i)
		}
	}
}

func TestJacobianPlanBitwiseParity(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	rng := rand.New(rand.NewSource(7))

	x0 := mod.StateToVec(truth)
	for trial := 0; trial < 25; trial++ {
		x := make([]float64, len(x0))
		copy(x, x0)
		if trial > 0 {
			for i := range x {
				x[i] += 0.2 * (rng.Float64() - 0.5)
			}
		}
		requireBitwiseJacobian(t, pl.Refresh(x), mod.Jacobian(x), x)

		h := make([]float64, mod.NMeas())
		pl.EvalInto(h, x)
		for i, v := range mod.Eval(x) {
			if math.Float64bits(h[i]) != math.Float64bits(v) {
				t.Fatalf("trial %d: EvalInto[%d]=%v != Eval=%v", trial, i, h[i], v)
			}
		}
	}
}

func TestJacobianPlanLargerNetworkParity(t *testing.T) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	res := pf.State
	ms, err := Simulate(n, RTUPlan(3).Build(n), res, 0.01, 3)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	ref := n.SlackIndex()
	mod, err := NewModel(n, ms, ref, res.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	pl := mod.NewJacobianPlan()
	rng := rand.New(rand.NewSource(11))
	x := mod.StateToVec(res)
	for trial := 0; trial < 5; trial++ {
		requireBitwiseJacobian(t, pl.Refresh(x), mod.Jacobian(x), x)
		for i := range x {
			x[i] += 0.1 * (rng.Float64() - 0.5)
		}
	}
}

func TestJacobianPlanRefreshZeroAlloc(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	pl := mod.NewJacobianPlan()
	x := mod.StateToVec(truth)
	h := make([]float64, mod.NMeas())
	pl.Refresh(x) // prime
	pl.EvalInto(h, x)

	if allocs := testing.AllocsPerRun(20, func() { pl.Refresh(x) }); allocs != 0 {
		t.Fatalf("JacobianPlan.Refresh allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { pl.EvalInto(h, x) }); allocs != 0 {
		t.Fatalf("JacobianPlan.EvalInto allocated %v times per run, want 0", allocs)
	}
}

func TestUpdateValuesAndSameStructure(t *testing.T) {
	n, truth := solvedCase14(t)
	mod := fullModel(t, n, truth)
	other := fullModel(t, n, truth)
	if !mod.SameStructure(other) {
		t.Fatal("models from the same plan should share structure")
	}

	fresh := make([]Measurement, len(mod.Meas))
	copy(fresh, other.Meas)
	for i := range fresh {
		fresh[i].Value += 0.5
	}
	if err := mod.UpdateValues(fresh); err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}
	for i := range mod.Meas {
		if mod.Meas[i].Value != fresh[i].Value {
			t.Fatalf("value %d not updated", i)
		}
	}

	bad := make([]Measurement, len(fresh))
	copy(bad, fresh)
	bad[0].Sigma *= 2
	if err := mod.UpdateValues(bad); err == nil {
		t.Fatal("UpdateValues accepted a sigma change")
	}
	if err := mod.UpdateValues(fresh[:1]); err == nil {
		t.Fatal("UpdateValues accepted a length change")
	}

	short, err := NewModel(n, mod.Meas[:len(mod.Meas)-1], n.SlackIndex(), truth.Va[n.SlackIndex()])
	if err != nil {
		t.Fatal(err)
	}
	if mod.SameStructure(short) {
		t.Fatal("SameStructure accepted differing measurement counts")
	}
}

// flatObjectiveByEvaluation is J at the flat profile the way the warm-start
// gate summed it before the plan kept h there: a state load at FlatVec(),
// r = z − h, and w·r·r added up in measurement order.
func flatObjectiveByEvaluation(mod *Model, z, w []float64) float64 {
	h := mod.Eval(mod.FlatVec())
	var j float64
	for i := range h {
		r := z[i] - h[i]
		j += w[i] * r * r
	}
	return j
}

// TestFlatObjectiveMatchesFlatEvaluation: the plan's J at the flat profile,
// read off h there as evaluated once, is bit for bit the sum over a fresh
// evaluation at FlatVec() — at reference angles 0, −0, 1e-300, 0.3 and −π,
// under the models' own, scaled and masked weights, on IEEE-14 and IEEE-118
// with PMU angles and on an outage view, whose plan keeps h of its own. A
// Rebind drops the kept h.
func TestFlatObjectiveMatchesFlatEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []*grid.Network{grid.Case14(), grid.Case118()} {
		ms := FullPlan().Build(n)
		for _, b := range n.Buses {
			if rng.Intn(4) == 0 {
				ms = append(ms, Measurement{Kind: Angle, Bus: b.ID, Sigma: 5e-4})
			}
		}
		z := make([]float64, len(ms))
		for i := range ms {
			ms[i].Value = 0.1 * rng.NormFloat64()
			z[i] = ms[i].Value
		}
		mod, err := NewModel(n, ms, n.SlackIndex(), 0.3)
		if err != nil {
			t.Fatal(err)
		}
		out := 0 // the branch with the most charging: its ends' Q(flat) change
		for bi, br := range n.Branches {
			if br.Status && br.B > n.Branches[out].B {
				out = bi
			}
		}
		view, err := mod.WithoutBranch(out)
		if err != nil {
			t.Fatal(err)
		}
		own := mod.Weights()
		pl := mod.NewJacobianPlan()
		pl.FlatObjective(z, own) // the base keeps its h(flat) before the clone
		viewPl, err := pl.CloneFor(view)
		if err != nil {
			t.Fatal(err)
		}
		scaled, masked := make([]float64, len(own)), make([]float64, len(own))
		for i, w := range own {
			scaled[i] = w * (0.5 + 1.5*rng.Float64())
			if i%5 != 0 {
				masked[i] = scaled[i]
			}
		}
		weights := map[string][]float64{"own": own, "scaled": scaled, "masked": masked}
		refs := []float64{0.3, 0, math.Copysign(0, -1), 1e-300, -math.Pi}
		for _, c := range []struct {
			name string
			mod  *Model
			pl   *JacobianPlan
		}{{"base", mod, pl}, {"outage", view, viewPl}} {
			for _, ref := range refs {
				c.mod.SetRefAngle(ref)
				for wn, w := range weights {
					got, want := c.pl.FlatObjective(z, w), flatObjectiveByEvaluation(c.mod, z, w)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s, reference angle %g, %s weights: J(flat) %v, evaluated %v", n.Name, c.name, ref, wn, got, want)
					}
				}
			}
		}
		if pl.FlatObjective(z, own) == viewPl.FlatObjective(z, own) {
			t.Fatalf("%s: taking out branch %d leaves J(flat) unchanged, so the outage case checks nothing", n.Name, out)
		}

		other, err := NewModel(n, slices.Clone(ms), n.SlackIndex(), -0.2)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Rebind(other); err != nil {
			t.Fatal(err)
		}
		if pl.flat != nil {
			t.Fatalf("%s: Rebind kept h at the flat profile", n.Name)
		}
		if got, want := pl.FlatObjective(z, own), flatObjectiveByEvaluation(other, z, own); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: after Rebind J(flat) %v, evaluated %v", n.Name, got, want)
		}
	}
}
