package wls

import (
	"context"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// batchCaseFixture is one outage case built for BatchEngine tests: the
// case model over the perturbed topology, the case → base measurement
// mapping, and a scalar reference solution from a dedicated engine.
type batchCaseFixture struct {
	out     int
	mod     *meas.Model
	measMap []int32
	scalarX []float64
}

// buildBatchFixture assembles the base engine, its batch engine, and
// outage-case fixtures over Case118 with a full measurement plan. Outages
// that island or fail to estimate are skipped.
func buildBatchFixture(t *testing.T, outs []int, opts Options) (*Engine, *BatchEngine, []*batchCaseFixture) {
	t.Helper()
	n := grid.Case118()
	truth := solved(t, n)
	ms, err := meas.Simulate(n, meas.FullPlan().Build(n), truth, 1, 23)
	if err != nil {
		t.Fatal(err)
	}
	ref := n.SlackIndex()
	baseMod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	base := NewEngine(baseMod)
	be := NewBatchEngine(base)

	var fixtures []*batchCaseFixture
	for _, out := range outs {
		pnet := n.Clone()
		pnet.Branches[out].Status = false
		var cms []meas.Measurement
		var mmap []int32
		for bi, m := range ms {
			if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out {
				continue
			}
			cms = append(cms, m)
			mmap = append(mmap, int32(bi))
		}
		cref := pnet.SlackIndex()
		cmod, err := meas.NewModel(pnet, cms, cref, truth.Va[cref])
		if err != nil {
			continue // islanded / unobservable outage: not a batch fixture
		}
		sres, err := NewEngine(cmod).Estimate(opts)
		if err != nil {
			continue
		}
		fixtures = append(fixtures, &batchCaseFixture{
			out: out, mod: cmod, measMap: mmap, scalarX: sres.X,
		})
	}
	if len(fixtures) < 4 {
		t.Fatalf("only %d usable outage fixtures (want >= 4)", len(fixtures))
	}
	return base, be, fixtures
}

func batchMaxDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBatchEngineMatchesScalar: a batched solve over outage cases warm
// started at the base anchor state lands within 1e-9 of each case's
// independent scalar solution, and the batch actually serves cases (no
// blanket fallback).
func TestBatchEngineMatchesScalar(t *testing.T) {
	forEachPrecond(t, func(t *testing.T, pk PrecondKind) {
		// Tol 1e-9 puts both paths well under 1e-9 from the exact minimizer (the
		// lagged batch contracts linearly, so its landing error is a modest
		// multiple of the last step), making the 1e-9 agreement bound test path
		// equivalence rather than stopping slack.
		opts := Options{Precond: pk, Workers: 1, Tol: 1e-9}
		_, be, fixtures := buildBatchFixture(t, []int{0, 3, 5, 7, 11, 15, 20, 30}, opts)

		if !be.Supported(opts) {
			t.Fatal("PCG/CSR/natural configuration reported unsupported")
		}
		anchorRes, reanchored, err := be.EnsureAnchor(context.Background(), opts)
		if err != nil {
			t.Fatalf("anchor estimate: %v", err)
		}
		if !reanchored {
			t.Fatal("first EnsureAnchor did not anchor")
		}

		var bcs []*BatchCase
		for _, f := range fixtures {
			bcs = append(bcs, &BatchCase{
				Eng:     NewEngine(f.mod),
				MeasMap: f.measMap,
				X0:      sparse.CopyVec(anchorRes.X),
			})
		}
		bst := be.SolveBatch(context.Background(), bcs, opts)

		batched := 0
		for i, bc := range bcs {
			f := fixtures[i]
			if bc.Err != nil {
				t.Fatalf("outage %d: %v", f.out, bc.Err)
			}
			if !bc.Res.Converged {
				t.Fatalf("outage %d did not converge", f.out)
			}
			if !bc.Fallback {
				batched++
				if bc.Res.GainRefreshes != 0 || bc.Res.GainSkips != bc.Res.Iterations {
					t.Fatalf("outage %d: batched case reports %d refreshes / %d skips over %d GN iterations",
						f.out, bc.Res.GainRefreshes, bc.Res.GainSkips, bc.Res.Iterations)
				}
			}
			if d := batchMaxDiff(bc.Res.X, f.scalarX); d > 1e-9 {
				t.Fatalf("outage %d (fallback=%v): batched estimate deviates %g from scalar", f.out, bc.Fallback, d)
			}
		}
		if batched == 0 {
			t.Fatal("every case fell back to the scalar path (batch never engaged)")
		}
		if bst.MatVecs == 0 {
			t.Fatalf("batched sweep reported no shared operator passes: %+v", bst)
		}
		if bst.CompactedMatVecs > bst.MatVecs {
			t.Fatalf("compacted passes exceed total passes: %+v", bst)
		}
		t.Logf("batched %d/%d cases, stats %+v", batched, len(bcs), bst)

		// A second sweep reuses the cached deltas (epoch unchanged) and must
		// reproduce the same estimates.
		for _, bc := range bcs {
			bc.X0 = sparse.CopyVec(anchorRes.X)
		}
		be.SolveBatch(context.Background(), bcs, opts)
		for i, bc := range bcs {
			if bc.Err != nil {
				t.Fatalf("resweep outage %d: %v", fixtures[i].out, bc.Err)
			}
			if d := batchMaxDiff(bc.Res.X, fixtures[i].scalarX); d > 1e-9 {
				t.Fatalf("resweep outage %d deviates %g", fixtures[i].out, d)
			}
		}
	})
}

// TestBatchEngineFallbackIdentical: a case the batch cannot serve (flat
// start outside the anchor drift gate) re-runs the scalar path and its
// estimate is bit-identical to an engine that was never batched.
func TestBatchEngineFallbackIdentical(t *testing.T) {
	forEachPrecond(t, func(t *testing.T, pk PrecondKind) {
		opts := Options{Precond: pk, Workers: 1}
		_, be, fixtures := buildBatchFixture(t, []int{0, 3, 5, 7, 11}, opts)
		if _, _, err := be.EnsureAnchor(context.Background(), opts); err != nil {
			t.Fatalf("anchor estimate: %v", err)
		}

		f := fixtures[0]
		bc := &BatchCase{Eng: NewEngine(f.mod), MeasMap: f.measMap} // X0 nil: flat start
		be.SolveBatch(context.Background(), []*BatchCase{bc}, opts)
		if bc.Err != nil {
			t.Fatal(bc.Err)
		}
		if !bc.Fallback {
			t.Fatal("flat-start case (outside the anchor drift gate) did not fall back")
		}
		ref, err := NewEngine(f.mod).Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.X {
			if bc.Res.X[i] != ref.X[i] {
				t.Fatalf("fallback estimate differs from never-batched scalar at %d: %g vs %g",
					i, bc.Res.X[i], ref.X[i])
			}
		}
	})
}

// TestBatchEngineUnsupportedOptions: configurations outside the batch's
// replayable set are reported unsupported, and SolveBatch under them still
// honors the contract by running every case scalar.
func TestBatchEngineUnsupportedOptions(t *testing.T) {
	opts := Options{Workers: 1}
	_, be, fixtures := buildBatchFixture(t, []int{0, 3, 5, 7, 11}, opts)
	if _, _, err := be.EnsureAnchor(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{Solver: Dense},
		{Precond: PrecondIC0},
		{Precond: PrecondBlockJacobi},
		{Ordering: OrderRCM},
	} {
		if be.Supported(bad) {
			t.Fatalf("options %+v reported supported", bad)
		}
	}
	bad := Options{Workers: 1, Precond: PrecondIC0, Ordering: OrderRCM}
	f := fixtures[1]
	bc := &BatchCase{Eng: NewEngine(f.mod), MeasMap: f.measMap}
	be.SolveBatch(context.Background(), []*BatchCase{bc}, bad)
	if bc.Err != nil {
		t.Fatal(bc.Err)
	}
	if !bc.Fallback {
		t.Fatal("unsupported options did not route the case to the scalar path")
	}
	ref, err := NewEngine(f.mod).Estimate(bad)
	if err != nil {
		t.Fatal(err)
	}
	if d := batchMaxDiff(bc.Res.X, ref.X); d != 0 {
		t.Fatalf("unsupported-config fallback deviates %g from scalar", d)
	}
}
