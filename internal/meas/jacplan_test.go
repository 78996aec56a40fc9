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

// rowPattern appends to cols the state column of every Jacobian entry the
// kernel emits for measurement mi, in emission order (jacobianLoaded), −1
// standing for the reference angle, which has no column.
func (mod *Model) rowPattern(mi int, cols []int) []int {
	k, y, nA := &mod.k, mod.y, mod.nAngles
	idx := k.ops[mi].idx
	switch mod.Meas[mi].Kind {
	case Vmag:
		cols = append(cols, nA+int(idx))
	case Angle:
		cols = append(cols, mod.angPos[idx])
	case Pinj, Qinj:
		i := int(idx)
		for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
			j := y.ColIdx[e]
			cols = append(cols, mod.angPos[j], nA+j)
		}
	case Pflow, Qflow:
		e := &k.ends[idx]
		cols = append(cols, mod.angPos[e.f], mod.angPos[e.t], nA+int(e.f), nA+int(e.t))
	}
	return cols
}

// twoPassJacobianPattern is H's pattern and the slot map as the plan once
// built them, the oracle of the closed-form build: count every row's
// columns, then list each row's emissions again and insertion-sort them by
// column. It fails if a row emits one column twice.
func twoPassJacobianPattern(t *testing.T, mod *Model) (rowPtr, colIdx []int, slots []int32) {
	t.Helper()
	m := len(mod.Meas)
	rowPtr = make([]int, m+1)
	var cols []int
	emissions := 0
	for mi := 0; mi < m; mi++ {
		cols = mod.rowPattern(mi, cols[:0])
		emissions += len(cols)
		for _, c := range cols {
			if c >= 0 {
				rowPtr[mi+1]++
			}
		}
		rowPtr[mi+1] += rowPtr[mi]
	}
	nnz := rowPtr[m]
	colIdx = make([]int, nnz)
	slots = make([]int32, emissions)
	var ord []int // the row's emissions that have a column, sorted by it
	em := 0
	for mi := 0; mi < m; mi++ {
		cols = mod.rowPattern(mi, cols[:0])
		ord = ord[:0]
		for i, c := range cols {
			if c < 0 {
				slots[em+i] = int32(nnz)
				continue
			}
			at := len(ord)
			ord = append(ord, i)
			for ; at > 0 && cols[ord[at-1]] > c; at-- {
				ord[at] = ord[at-1]
			}
			ord[at] = i
		}
		for r, i := range ord {
			if r > 0 && cols[ord[r-1]] == cols[i] {
				t.Fatalf("measurement %d (%s) emits column %d twice", mi, mod.Meas[mi].Key(), cols[i])
			}
			colIdx[rowPtr[mi]+r] = cols[i]
			slots[em+i] = int32(rowPtr[mi] + r)
		}
		em += len(cols)
	}
	return rowPtr, colIdx, slots
}

// requireJacobianPlanMatchesTwoPass fails unless pl's pattern and slot map
// are the two-pass build's on pl's model.
func requireJacobianPlanMatchesTwoPass(t *testing.T, mod *Model, pl *JacobianPlan) {
	t.Helper()
	rowPtr, colIdx, slots := twoPassJacobianPattern(t, mod)
	requireSameInts(t, "RowPtr", pl.H.RowPtr, rowPtr)
	requireSameInts(t, "ColIdx", pl.H.ColIdx, colIdx)
	requireSameInts(t, "slots", pl.slots, slots)
	if len(pl.val) != len(colIdx)+1 {
		t.Fatalf("%d values and sink for %d entries", len(pl.val), len(colIdx))
	}
}

// requireSameInts fails at the first entry where got and the two-pass
// build's want differ.
func requireSameInts[T int | int32](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, two-pass build %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, two-pass build %d", name, i, got[i], want[i])
		}
	}
}

// TestJacobianPlanMatchesTwoPassBuild: the closed-form plan is the two-pass
// build's, pattern and slot map, on the full SCADA plan and an RTU plan with
// dropped meters, on IEEE-14/30/118 with the reference at the slack and at
// the most connected bus (so the reference angle sits inside many injection
// rows), with the measurement order reversed and shuffled, and on a set
// holding an Angle row at the reference bus itself.
func TestJacobianPlanMatchesTwoPassBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()} {
		hub := 0
		y := grid.BuildYBus(n)
		for i := 0; i < n.N(); i++ {
			if y.RowPtr[i+1]-y.RowPtr[i] > y.RowPtr[hub+1]-y.RowPtr[hub] {
				hub = i
			}
		}
		for _, ref := range []int{n.SlackIndex(), hub} {
			for _, plan := range [][]Measurement{FullPlan().Build(n), RTUPlan(3).Build(n)} {
				plan = append(plan, Measurement{Kind: Angle, Bus: n.Buses[ref].ID, Sigma: 1e-3})
				reversed := slices.Clone(plan)
				slices.Reverse(reversed)
				shuffled := slices.Clone(plan)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, ms := range [][]Measurement{plan, reversed, shuffled} {
					mod, err := NewModel(n, ms, ref, 0)
					if err != nil {
						t.Fatal(err)
					}
					requireJacobianPlanMatchesTwoPass(t, mod, mod.NewJacobianPlan())
				}
			}
		}
	}
}
