package wls

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestFormatBSRMatchesCSROn118 is the acceptance check for the blocked
// path: on the 118-bus case the BSR solve must land on the same state as
// the scalar CSR solve to well under 1e-9, across preconditioners and bus
// orderings.
func TestFormatBSRMatchesCSROn118(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	ref, err := Estimate(mod, Options{Precond: PrecondJacobi, Format: FormatCSR})
	if err != nil {
		t.Fatalf("csr estimate: %v", err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"bsr-jacobi", Options{Precond: PrecondJacobi, Format: FormatBSR}},
		{"bsr-jacobi-serial", Options{Precond: PrecondJacobi, Format: FormatBSR, Workers: 1}},
		{"bsr-none", Options{Format: FormatBSR, Precond: PrecondNone}},
		{"bjacobi", Options{Precond: PrecondBlockJacobi}},
		{"bjacobi-rcm", Options{Precond: PrecondBlockJacobi, Ordering: OrderRCM}},
		{"bjacobi-mindeg", Options{Precond: PrecondBlockJacobi, Ordering: OrderMinDegree}},
		{"bsr-jacobi-rcm", Options{Precond: PrecondJacobi, Format: FormatBSR, Ordering: OrderRCM}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Estimate(mod, tc.opts)
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			if d := maxAbsDiff(got.X, ref.X); d > 1e-9 {
				t.Fatalf("state differs from CSR by %g", d)
			}
			if math.Abs(got.ObjectiveJ-ref.ObjectiveJ) > 1e-6*(1+ref.ObjectiveJ) {
				t.Fatalf("objective %v, want %v", got.ObjectiveJ, ref.ObjectiveJ)
			}
		})
	}
}

// TestFormatAutoIsTransparent: FormatAuto must produce bit-for-bit the
// default result — the knob only changes storage when it provably cannot
// change the answer... and here it must pick the same path as the zero
// value, so the states are identical.
func TestFormatAutoIsTransparent(t *testing.T) {
	for _, build := range []func() *grid.Network{grid.Case14, grid.Case118} {
		mod := engineTestModel(t, build, 0.01, 3)
		def, err := Estimate(mod, Options{Precond: PrecondJacobi})
		if err != nil {
			t.Fatalf("default: %v", err)
		}
		auto, err := Estimate(mod, Options{Precond: PrecondJacobi, Format: FormatAuto})
		if err != nil {
			t.Fatalf("auto: %v", err)
		}
		for i := range def.X {
			if auto.X[i] != def.X[i] {
				t.Fatalf("FormatAuto changed x[%d]: %v vs %v", i, auto.X[i], def.X[i])
			}
		}
		if auto.CGIterations != def.CGIterations {
			t.Fatalf("FormatAuto changed CG iterations: %d vs %d", auto.CGIterations, def.CGIterations)
		}
	}
}

func TestFormatCSRRejectsBlockJacobi(t *testing.T) {
	mod := engineTestModel(t, grid.Case14, 0.01, 3)
	_, err := Estimate(mod, Options{Format: FormatCSR, Precond: PrecondBlockJacobi})
	if err == nil {
		t.Fatal("expected an error for FormatCSR + PrecondBlockJacobi")
	}
}

func TestFormatBSRFallsBackForIC0(t *testing.T) {
	// The factorizations have no blocked implementation; FormatBSR quietly
	// keeps them on CSR rather than failing.
	mod := engineTestModel(t, grid.Case14, 0.01, 3)
	for _, pk := range []PrecondKind{PrecondIC0, PrecondLDL} {
		ref, err := Estimate(mod, Options{Precond: pk, Ordering: OrderNatural})
		if err != nil {
			t.Fatalf("csr %v: %v", pk, err)
		}
		got, err := Estimate(mod, Options{Precond: pk, Ordering: OrderNatural, Format: FormatBSR})
		if err != nil {
			t.Fatalf("bsr %v: %v", pk, err)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("%v fallback changed x[%d]", pk, i)
			}
		}
	}
}

// TestGainMatrixBSREquivalence is the randomized property test: for the
// 14/30/118-bus gain matrices under random weights, the interleave-ordered
// blocked refresh must match the same-ordered scalar refresh to 1e-12.
func TestGainMatrixBSREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, build := range []func() *grid.Network{grid.Case14, grid.Case30, grid.Case118} {
		mod := engineTestModel(t, build, 0.01, 5)
		hj := mod.Jacobian(mod.FlatVec())
		perm := sparse.BusInterleave(mod.NAngles(), mod.Net.N(), mod.RefBus(), nil)
		gp := sparse.NewGainPlanOrdered(hj, perm)
		w := make([]float64, hj.Rows)
		for trial := 0; trial < 3; trial++ {
			for i := range w {
				w[i] = 0.1 + rng.Float64()*10
			}
			g := gp.Refresh(hj, w)
			bsr := gp.RefreshBSR(hj, w)
			for i := 0; i < g.Rows; i++ {
				for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
					diff := math.Abs(bsr.At(i, g.ColIdx[k]) - g.Val[k])
					if diff > 1e-12*(1+math.Abs(g.Val[k])) {
						t.Fatalf("%s trial %d: blocked G(%d,%d) off by %g",
							mod.Net.Name, trial, i, g.ColIdx[k], diff)
					}
				}
			}
		}
	}
}

// TestEngineBSRIterationZeroAllocKernels mirrors the CSR steady-state
// allocation test for the blocked path: after warm-up, a serial blocked
// refresh + RHS + solve iteration performs no kernel allocations.
func TestEngineBSRIterationZeroAllocKernels(t *testing.T) {
	mod := engineTestModel(t, grid.Case118, 0.01, 7)
	e := NewEngine(mod)
	opts := Options{Precond: PrecondBlockJacobi, Workers: 1}
	if _, err := e.Estimate(opts); err != nil {
		t.Fatalf("warm-up estimate: %v", err)
	}
	hj := mod.Jacobian(mod.FlatVec())
	gs, err := e.refreshGain(hj, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gs.bsr == nil {
		t.Fatal("block-jacobi run did not produce a blocked gain matrix")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.refreshGain(hj, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("blocked refreshGain allocated %v times per run, want 0", allocs)
	}
}
