package wls

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// TestAdaptiveGateClamps pins the scale dynamics: widening saturates at
// ×adaptGateSpan, tightening at ÷adaptGateSpan, and a fallback resets the
// clean streak.
func TestAdaptiveGateClamps(t *testing.T) {
	var r gainReuse
	if r.adaptScale() != 1 {
		t.Fatalf("uninitialized scale = %v, want 1", r.adaptScale())
	}
	for i := 0; i < 10*adaptStreakRuns; i++ {
		r.adaptClean()
	}
	if r.adaptScale() != adaptGateSpan {
		t.Fatalf("widening saturated at %v, want %v", r.adaptScale(), adaptGateSpan)
	}
	for i := 0; i < 20; i++ {
		r.adaptFallback()
	}
	if r.adaptScale() != 1/adaptGateSpan {
		t.Fatalf("tightening saturated at %v, want %v", r.adaptScale(), 1/adaptGateSpan)
	}

	// A fallback mid-streak resets it: three cleans, a fallback, then three
	// more cleans must not widen.
	r = gainReuse{}
	for i := 0; i < adaptStreakRuns-1; i++ {
		r.adaptClean()
	}
	r.adaptFallback()
	before := r.adaptScale()
	for i := 0; i < adaptStreakRuns-1; i++ {
		r.adaptClean()
	}
	if r.adaptScale() != before {
		t.Fatalf("streak survived a fallback: scale %v, want %v", r.adaptScale(), before)
	}
	// An inflated accept holds the scale but resets the streak too.
	r = gainReuse{}
	for i := 0; i < adaptStreakRuns-1; i++ {
		r.adaptClean()
	}
	r.adaptInflated()
	r.adaptClean()
	if r.adaptScale() != 1 {
		t.Fatalf("streak survived an inflated accept: scale %v", r.adaptScale())
	}
}

// TestAdaptiveGateQuiescentWidens: steady tracking re-solves under
// ReuseGain accumulate clean lagged accepts, so the adaptive gate widens
// past ×1 and the guard never trips.
func TestAdaptiveGateQuiescentWidens(t *testing.T) {
	forEachPrecond(t, func(t *testing.T, pk PrecondKind) {
		n := grid.Case118()
		truth := solved(t, n)
		mod := buildModel(t, n, truth, 1, 11)

		eng := NewEngine(mod)
		opts := Options{Precond: pk, GainReuse: ReuseGain, AdaptiveGate: true, Workers: 1}
		res, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		var fallbacks int
		for f := 0; f < 4*adaptStreakRuns; f++ {
			opts.X0 = sparse.CopyVec(res.X)
			res, err = eng.Estimate(opts)
			if err != nil {
				t.Fatalf("steady solve %d: %v", f, err)
			}
			fallbacks += res.ReuseFallbacks
		}
		if fallbacks != 0 {
			t.Fatalf("quiescent tracking tripped the guard %d times", fallbacks)
		}
		if eng.reuse.adaptScale() <= 1 {
			t.Fatalf("adaptive gate stayed at ×%v across quiescent re-solves (want widened)", eng.reuse.adaptScale())
		}
		t.Logf("quiescent gate scale: ×%v", eng.reuse.adaptScale())
	})
}

// TestAdaptiveGateFallbackTightens: a guard fallback (forced here by
// zeroing the anchored CG budget) halves the gate scale.
func TestAdaptiveGateFallbackTightens(t *testing.T) {
	forEachPrecond(t, func(t *testing.T, pk PrecondKind) {
		n := grid.Case118()
		truth := solved(t, n)
		mod := buildModel(t, n, truth, 1, 13)

		eng := NewEngine(mod)
		opts := Options{Precond: pk, GainReuse: ReuseGain, AdaptiveGate: true, Workers: 1}
		res, err := eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		// An impossible budget makes the first lagged solve blow the guard
		// unconditionally — the jittery-signal signature (CG inflation).
		eng.reuse.freshCG = -10 * reuseCGSlack
		before := eng.reuse.adaptScale()
		opts.X0 = sparse.CopyVec(res.X)
		res, err = eng.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReuseFallbacks == 0 {
			t.Fatal("forced budget blowout did not trip the guard")
		}
		if eng.reuse.adaptScale() >= before {
			t.Fatalf("gate scale %v did not tighten from %v after fallback", eng.reuse.adaptScale(), before)
		}
	})
}

// TestAdaptiveGateWidenedGateAdmitsMoreDrift: with the scale saturated at
// ×8, a warm start drifted a few gate-widths from the anchor still runs
// lagged, while the fixed gate refreshes — and both land on the same
// estimate (the guard semantics are untouched).
func TestAdaptiveGateWidenedGateAdmitsMoreDrift(t *testing.T) {
	forEachPrecond(t, func(t *testing.T, pk PrecondKind) {
		n := grid.Case118()
		truth := solved(t, n)
		plan := meas.FullPlan().Build(n)
		ref := n.SlackIndex()
		ms, err := meas.Simulate(n, plan, truth, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		newEng := func() *Engine {
			mod, err := meas.NewModel(n, ms, ref, truth.Va[ref])
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(mod)
		}
		opts := Options{Precond: pk, GainReuse: ReuseGain, Workers: 1}
		engFixed, engWide := newEng(), newEng()
		resF, err := engFixed.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		resW, err := engWide.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}

		// Warm start drifted ~3× the default gate from the anchored solution:
		// inside the widened ×8 gate, outside the fixed one.
		x0 := sparse.CopyVec(resW.X)
		for i := range x0 {
			x0[i] += 3 * ReuseGainGateDefault * (1 + math.Abs(x0[i])) * 0.9
		}
		engWide.reuse.adapt = adaptGateSpan
		wOpts := opts
		wOpts.AdaptiveGate = true
		wOpts.X0 = x0
		wideRes, err := engWide.Estimate(wOpts)
		if err != nil {
			t.Fatal(err)
		}
		fOpts := opts
		fOpts.X0 = sparse.CopyVec(resF.X)
		copy(fOpts.X0, x0)
		fixedRes, err := engFixed.Estimate(fOpts)
		if err != nil {
			t.Fatal(err)
		}
		if wideRes.GainRefreshes != 0 {
			t.Fatalf("widened gate refreshed the gain %d times from a %g-drift start (want all lagged)",
				wideRes.GainRefreshes, 3*ReuseGainGateDefault)
		}
		if fixedRes.GainRefreshes == 0 {
			t.Fatal("fixed gate never refreshed from a start past the gate (drift fixture too small)")
		}
		var worst float64
		for i := range wideRes.X {
			if d := math.Abs(wideRes.X[i] - fixedRes.X[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-9 {
			t.Fatalf("widened-gate estimate deviates %g from fixed-gate (guard must pin the estimate)", worst)
		}
	})
}
