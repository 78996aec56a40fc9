package wls

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
)

// maskBranchFlows masks every flow row metered on branch out.
func maskBranchFlows(t *testing.T, eng *Engine, out int) {
	t.Helper()
	for i, m := range eng.Model().Meas {
		if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out {
			if err := eng.MaskMeasurement(i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rebuiltOutage is the estimate the slow way: a copy of the network with the
// branch out, its own measurement set, a fresh engine.
func rebuiltOutage(t *testing.T, mod *meas.Model, out int, opts Options) *Result {
	t.Helper()
	pn := mod.Net.Clone()
	pn.Branches[out].Status = false
	var ms []meas.Measurement
	for _, m := range mod.Meas {
		if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out {
			continue
		}
		ms = append(ms, m)
	}
	pm, err := meas.NewModel(pn, ms, mod.RefBus(), mod.RefAngle())
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(pm).Estimate(opts)
	if err != nil {
		t.Fatalf("outage %d rebuilt: %v", out, err)
	}
	return res
}

// TestEngineCloneSharesIndexArrays: a clone for an outage view owns values
// only — H's and G's index arrays are the base engine's, and after the base
// has factored the clone never analyzes — and with the outaged branch's
// flows masked it lands on the rebuilt model's estimate, whether it was
// cloned before the base engine's first solve or after.
func TestEngineCloneSharesIndexArrays(t *testing.T) {
	mod := engineTestModel(t, grid.Case30, 1, 3)
	opts := Options{Tol: 1e-10}
	for _, solvedFirst := range []bool{false, true} {
		base := NewEngine(mod)
		if solvedFirst {
			if _, err := base.Estimate(opts); err != nil {
				t.Fatal(err)
			}
		}
		for _, out := range []int{1, 8, 20} {
			view, err := mod.WithoutBranch(out)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := base.CloneFor(view)
			if err != nil {
				t.Fatal(err)
			}
			bh, ch := base.jplan.H, eng.jplan.H
			bg, cg := base.gplan.G, eng.gplan.G
			if &ch.ColIdx[0] != &bh.ColIdx[0] || &ch.RowPtr[0] != &bh.RowPtr[0] ||
				&cg.ColIdx[0] != &bg.ColIdx[0] || &cg.RowPtr[0] != &bg.RowPtr[0] {
				t.Fatal("the clone copied an index array")
			}
			if &ch.Val[0] == &bh.Val[0] || &cg.Val[0] == &bg.Val[0] || &eng.baseW[0] == &base.baseW[0] {
				t.Fatal("the clone shares values with the base engine")
			}
			if solvedFirst != (eng.ldl != nil) || eng.ldl != nil && eng.ldl == base.ldl {
				t.Fatalf("solved first %v: clone factor %p, base factor %p", solvedFirst, eng.ldl, base.ldl)
			}
			shared := eng.ldl
			maskBranchFlows(t, eng, out)
			got, err := eng.Estimate(Options{})
			if err != nil {
				t.Fatalf("outage %d: %v", out, err)
			}
			if solvedFirst && eng.ldl != shared {
				t.Fatalf("outage %d: the clone ran an analysis of its own", out)
			}
			want := rebuiltOutage(t, mod, out, opts)
			for i := range want.X {
				if d := math.Abs(got.X[i] - want.X[i]); d > 1e-9 {
					t.Fatalf("outage %d: x[%d] off the rebuilt model by %g", out, i, d)
				}
			}
			if d := math.Abs(got.ObjectiveJ - want.ObjectiveJ); d > 1e-9*want.ObjectiveJ {
				t.Fatalf("outage %d: J = %v, rebuilt model %v", out, got.ObjectiveJ, want.ObjectiveJ)
			}
		}
	}
	other := engineTestModel(t, grid.Case30, 1, 3)
	if _, err := NewEngine(mod).CloneFor(other); err == nil {
		t.Fatal("an engine cloned for a model with a kernel of its own")
	}
}

// TestMaskedOnlyStateIsUnobservable: masks are values, and the plans'
// structural checks cannot see them. Bus 8 of IEEE-14 hangs off branch 7–8
// alone; with flows and magnitudes metered but no injections, masking that
// branch's four flow rows leaves θ8 to masked rows only. The gain solve
// must say so with ErrUnobservable before any numerics, masks short of that
// must still solve, and masks that leave m < n must fail the count.
func TestMaskedOnlyStateIsUnobservable(t *testing.T) {
	n := grid.Case14()
	leaf := -1
	for bi, br := range n.Branches {
		if br.From == 7 && br.To == 8 {
			leaf = bi
		}
	}
	if leaf < 0 {
		t.Fatal("IEEE-14 has no branch 7-8")
	}
	plan := meas.PlanOptions{VoltageAt: 1, FlowsAt: 1}.Build(n)
	ms, err := meas.Simulate(n, plan, solved(t, n), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := meas.NewModel(n, ms, n.SlackIndex(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(mod)
	maskBranchFlows(t, eng, 0)
	if _, err := eng.Estimate(Options{}); err != nil {
		t.Fatalf("a looped branch's flows masked: %v", err)
	}
	maskBranchFlows(t, eng, leaf)
	_, err = eng.Estimate(Options{})
	if !errors.Is(err, ErrUnobservable) || !strings.Contains(err.Error(), "only masked measurements touch the angle of bus 8") {
		t.Fatalf("the leaf's flows masked: %v", err)
	}
	if _, err := eng.SolveLinear(Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("linear solve with the leaf's flows masked: %v", err)
	}
	eng.ColdStart() // keeps masks
	if _, err := eng.Estimate(Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("after ColdStart: %v", err)
	}
	eng.UnmaskAll()
	if _, err := eng.Estimate(Options{}); err != nil {
		t.Fatalf("after UnmaskAll: %v", err)
	}
	for i := 0; len(ms)-i >= mod.NState(); i++ {
		if err := eng.MaskMeasurement(i); err != nil {
			t.Fatal(err)
		}
		_ = eng.MaskMeasurement(i) // masking twice counts once
	}
	_, err = eng.Estimate(Options{})
	if !errors.Is(err, ErrUnobservable) || !strings.Contains(err.Error(), "measurements <") {
		t.Fatalf("m - masked < n: %v", err)
	}
}
