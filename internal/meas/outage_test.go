package meas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// outageFixture is a four-bus ring with a second circuit on 1–2 listed the
// other way round, a tapped shifter and a shunted bus: taking out branch 0
// or 2 leaves the pair its other circuit, taking out any other branch
// leaves the pair none.
func outageFixture(t *testing.T) *grid.Network {
	t.Helper()
	n, err := grid.New("ring4x", 100,
		[]grid.Bus{{ID: 1, Type: grid.Slack, Vm: 1}, {ID: 2, Type: grid.PQ, Vm: 1, Gs: 3, Bs: 19}, {ID: 7, Type: grid.PQ, Vm: 1}, {ID: 4, Type: grid.PQ, Vm: 1}},
		[]grid.Branch{
			{From: 1, To: 2, R: 0.02, X: 0.1, B: 0.03, Status: true},
			{From: 2, To: 7, R: 0.01, X: 0.2, Tap: 0.97, Shift: 0.1, Status: true},
			{From: 2, To: 1, R: 0.03, X: 0.11, B: 0.01, Status: true},
			{From: 7, To: 4, X: 0.3, Status: true},
			{From: 4, To: 1, R: 0.05, X: 0.25, Status: true},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWithoutBranchMatchesRebuiltModel: at random states, for every branch
// of the fixture and of IEEE-14, -30 and -118 (parallel circuits and pairs
// with a single branch both occur), the outage view's h(x) and H(x) equal
// those of NewModel on a copy of the network with the branch out, bit for
// bit, on every row but the outaged branch's own flows — and what the view's
// Jacobian stores beyond the rebuilt pattern is zero.
func TestWithoutBranchMatchesRebuiltModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []*grid.Network{outageFixture(t), grid.Case14(), grid.Case30(), grid.Case118()} {
		ms := FullPlan().Build(n)
		for i := range ms {
			ms[i].Value = rng.NormFloat64()
		}
		ref := n.SlackIndex()
		base, err := NewModel(n, ms, ref, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		basePlan := base.NewJacobianPlan()
		x := make([]float64, base.NState())
		for out, br := range n.Branches {
			if !br.Status {
				continue
			}
			view, err := base.WithoutBranch(out)
			if err != nil {
				t.Fatalf("%s outage %d: %v", n.Name, out, err)
			}
			plan, err := basePlan.CloneFor(view)
			if err != nil {
				t.Fatalf("%s outage %d: %v", n.Name, out, err)
			}
			if &plan.H.ColIdx[0] != &basePlan.H.ColIdx[0] || &plan.H.RowPtr[0] != &basePlan.H.RowPtr[0] || &plan.slots[0] != &basePlan.slots[0] {
				t.Fatalf("%s outage %d: the cloned plan copied an index array", n.Name, out)
			}

			pn := n.Clone()
			pn.Branches[out].Status = false
			var kept []Measurement
			var rowOf []int // rebuilt row -> view row
			for i, m := range ms {
				if (m.Kind == Pflow || m.Kind == Qflow) && m.Branch == out {
					continue
				}
				kept = append(kept, m)
				rowOf = append(rowOf, i)
			}
			want, err := NewModel(pn, kept, ref, 0.05)
			if err != nil {
				t.Fatalf("%s outage %d: %v", n.Name, out, err)
			}

			for trial := 0; trial < 2; trial++ {
				for i := range x {
					if i < base.nAngles {
						x[i] = 0.4 * (rng.Float64() - 0.5)
					} else {
						x[i] = 0.9 + 0.2*rng.Float64()
					}
				}
				h := make([]float64, len(ms))
				plan.EvalInto(h, x)
				hj := plan.Refresh(x)
				wantH, wantJ := want.Eval(x), want.Jacobian(x)
				for r, vr := range rowOf {
					if math.Float64bits(h[vr]) != math.Float64bits(wantH[r]) {
						t.Fatalf("%s outage %d: h[%s] = %v, rebuilt model %v", n.Name, out, ms[vr].Key(), h[vr], wantH[r])
					}
					p := wantJ.RowPtr[r]
					for q := hj.RowPtr[vr]; q < hj.RowPtr[vr+1]; q++ {
						if p < wantJ.RowPtr[r+1] && wantJ.ColIdx[p] == hj.ColIdx[q] {
							if math.Float64bits(hj.Val[q]) != math.Float64bits(wantJ.Val[p]) {
								t.Fatalf("%s outage %d: H[%s, %d] = %v, rebuilt model %v", n.Name, out, ms[vr].Key(), hj.ColIdx[q], hj.Val[q], wantJ.Val[p])
							}
							p++
						} else if hj.Val[q] != 0 {
							t.Fatalf("%s outage %d: H[%s, %d] = %v where the rebuilt model has no entry", n.Name, out, ms[vr].Key(), hj.ColIdx[q], hj.Val[q])
						}
					}
					if p != wantJ.RowPtr[r+1] {
						t.Fatalf("%s outage %d: row %s of the rebuilt Jacobian has entries off the view's pattern", n.Name, out, ms[vr].Key())
					}
				}
			}
		}
	}
}

// TestWithoutBranchRejects: a view is of one in-service branch of a model
// NewModel built, and a Jacobian plan clones only for a model on its kernel.
func TestWithoutBranchRejects(t *testing.T) {
	n := grid.Case14()
	n.Branches[3].Status = false
	ms := FullPlan().Build(n)
	mod, err := NewModel(n, ms, n.SlackIndex(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []int{-1, len(n.Branches), 3} {
		if _, err := mod.WithoutBranch(br); err == nil {
			t.Fatalf("WithoutBranch(%d) accepted", br)
		}
	}
	view, err := mod.WithoutBranch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.WithoutBranch(1); err == nil {
		t.Fatal("a view of a view accepted")
	}
	if mod.SameStructure(view) {
		t.Fatal("a view has its base model's structure")
	}
	other, err := NewModel(n, ms, n.SlackIndex(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.NewJacobianPlan().CloneFor(other); err == nil {
		t.Fatal("a plan cloned for a model with a kernel of its own")
	}
}
