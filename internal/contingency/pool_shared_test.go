package contingency

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/wls"
)

// sameAsRebuilt holds one pooled case to the rebuilt estimate of the same
// outage: state within 1e-9, J within 1e-9 relative, the same measurement
// count.
func sameAsRebuilt(t *testing.T, what string, ce CaseEstimate, want *wls.Result) {
	t.Helper()
	got := ce.Estimate
	for b := range want.State.Vm {
		dvm := math.Abs(got.State.Vm[b] - want.State.Vm[b])
		dva := math.Abs(got.State.Va[b] - want.State.Va[b])
		if dvm > 1e-9 || dva > 1e-9 {
			t.Fatalf("%s outage %d bus %d: off the rebuilt estimate by Vm %g, Va %g", what, ce.Outage, b, dvm, dva)
		}
	}
	if d := math.Abs(got.ObjectiveJ - want.ObjectiveJ); d > 1e-9*want.ObjectiveJ {
		t.Fatalf("%s outage %d: J = %v, rebuilt %v", what, ce.Outage, got.ObjectiveJ, want.ObjectiveJ)
	}
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("%s outage %d: %d residuals, the case has %d measurements", what, ce.Outage, len(got.Residuals), len(want.Residuals))
	}
}

// TestPoolMatchesRebuiltModels is the differential test of the shared
// skeleton: every non-islanding outage of IEEE-14, -30 and -118 — parallel
// circuits and pairs joined by one branch alike — estimated by the pool
// equals the estimate of a model and engine rebuilt for that outage alone,
// residual for residual and violation for violation, and the first, middle
// and last case of each grid sit within 1e-6 of the dense Gauss–Newton oracle.
func TestPoolMatchesRebuiltModels(t *testing.T) {
	for _, n := range []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()} {
		st := solved(t, n)
		frame, _ := poolFrames(t, n, meas.FullPlan().Build(n))
		ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wopts := wls.Options{Tol: 1e-10, GainReuse: wls.ReuseOff}
		pool, err := NewPool(n, PoolOptions{WLS: wopts})
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := pool.Screen(context.Background(), frame, ratings, nil, ParallelOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if stats.WarmStarts != 0 || stats.SkeletonBuilds != stats.Estimated {
			t.Fatalf("%s first sweep: %+v", n.Name, stats)
		}
		var estimated []int
		for i, ce := range res {
			if ce.Islanding {
				continue
			}
			estimated = append(estimated, i)
			want := rebuiltOutage(t, n, ce.Outage, frame, wopts)
			sameAsRebuilt(t, n.Name, ce, want)
			for k, r := range want.Residuals {
				if d := math.Abs(ce.Estimate.Residuals[k] - r); d > 1e-8 {
					t.Fatalf("%s outage %d: residual %d off the rebuilt one by %g", n.Name, ce.Outage, k, d)
				}
			}
			wantV := pool.acViolations(ce.Outage, want.State, ratings, 1.0)
			if len(ce.Violations) != len(wantV) {
				t.Fatalf("%s outage %d: %d violations, rebuilt estimate %d", n.Name, ce.Outage, len(ce.Violations), len(wantV))
			}
			for k := range wantV {
				if ce.Violations[k].Branch != wantV[k].Branch {
					t.Fatalf("%s outage %d: violation %d on branch %d, rebuilt estimate %d", n.Name, ce.Outage, k, ce.Violations[k].Branch, wantV[k].Branch)
				}
			}
		}
		for _, i := range []int{estimated[0], estimated[len(estimated)/2], estimated[len(estimated)-1]} {
			want := oracleOutage(t, n, res[i].Outage, frame)
			for b := range want.Vm {
				dvm := math.Abs(res[i].Estimate.State.Vm[b] - want.Vm[b])
				dva := math.Abs(res[i].Estimate.State.Va[b] - want.Va[b])
				if dvm > 1e-6 || dva > 1e-6 {
					t.Fatalf("%s outage %d bus %d: off the oracle by Vm %g, Va %g", n.Name, res[i].Outage, b, dvm, dva)
				}
			}
		}
	}
}

// TestPoolEntriesShareSkeleton: every entry's model reads the skeleton's
// measurement slice and admittance pattern, so one UpdateValues reaches them
// all, and every entry masks exactly its own branch's flow rows.
func TestPoolEntriesShareSkeleton(t *testing.T) {
	n := grid.Case30()
	frame1, frame2 := poolFrames(t, n, meas.FullPlan().Build(n))
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := pool.Screen(ctx, frame1, nil, nil, ParallelOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	sk := pool.skel
	if len(pool.entries) == 0 {
		t.Fatal("the sweep cached no entry")
	}
	for out, e := range pool.entries {
		if &e.mod.Meas[0] != &sk.mod.Meas[0] {
			t.Fatalf("outage %d: the entry has a measurement slice of its own", out)
		}
		if len(e.masked) != 4 {
			t.Fatalf("outage %d: %d masked rows under the full plan, want 4", out, len(e.masked))
		}
		for i, m := range sk.mod.Meas {
			onBranch := (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out
			if e.eng.MaskedMeasurement(i) != onBranch {
				t.Fatalf("outage %d: row %s masked = %v", out, m.Key(), !onBranch)
			}
		}
	}
	if _, _, err := pool.Screen(ctx, frame2, nil, nil, ParallelOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if pool.skel != sk {
		t.Fatal("a frame of the same layout rebuilt the skeleton")
	}
	for i, m := range sk.mod.Meas {
		if m.Value != frame2[sk.keep[i]].Value {
			t.Fatalf("measurement %d holds %v after the second frame, the frame %v", i, m.Value, frame2[sk.keep[i]].Value)
		}
	}
}

// TestPoolMasksSurviveResets: ResetAnchors drops warm starts and numerics
// but not the outage's masks, a warm re-screen keeps them too, Reset drops
// everything, and each of the four sweeps still equals the rebuilt models.
func TestPoolMasksSurviveResets(t *testing.T) {
	n := grid.Case14()
	frame1, frame2 := poolFrames(t, n, meas.FullPlan().Build(n))
	wopts := wls.Options{Tol: 1e-10, GainReuse: wls.ReuseOff}
	pool, err := NewPool(n, PoolOptions{WLS: wopts})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sweep := func(what string, frame []meas.Measurement, wantBuilds, wantWarm bool) {
		t.Helper()
		res, stats, err := pool.Screen(ctx, frame, nil, nil, ParallelOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if (stats.SkeletonBuilds == stats.Estimated) != wantBuilds || (stats.SkeletonBuilds == 0) == wantBuilds {
			t.Fatalf("%s: %d entries built for %d cases", what, stats.SkeletonBuilds, stats.Estimated)
		}
		if (stats.WarmStarts == stats.Estimated) != wantWarm || (stats.WarmStarts == 0) == wantWarm {
			t.Fatalf("%s: %d warm starts for %d cases", what, stats.WarmStarts, stats.Estimated)
		}
		for _, ce := range res {
			if !ce.Islanding {
				sameAsRebuilt(t, what, ce, rebuiltOutage(t, n, ce.Outage, frame, wopts))
			}
		}
	}
	sweep("cold sweep", frame1, true, false)
	sweep("warm re-screen", frame2, false, true)
	pool.ResetAnchors()
	for out, e := range pool.entries {
		if e.haveWarm || len(e.masked) == 0 || !e.eng.MaskedMeasurement(e.masked[0]) {
			t.Fatalf("outage %d after ResetAnchors: warm %v, masks %v", out, e.haveWarm, e.masked)
		}
	}
	sweep("after ResetAnchors", frame1, false, false)
	pool.Reset()
	if pool.skel != nil || len(pool.entries) != 0 {
		t.Fatal("Reset kept the skeleton or an entry")
	}
	sweep("after Reset", frame2, true, false)
}

// TestPoolLayoutDriftRebuildsSkeleton: a frame with a different measurement
// layout rebuilds the base skeleton and every entry, counted as builds; a
// frame with a bad value fails the sweep and costs the pool nothing.
func TestPoolLayoutDriftRebuildsSkeleton(t *testing.T) {
	n := grid.Case14()
	frame1, frame2 := poolFrames(t, n, meas.FullPlan().Build(n))
	wopts := wls.Options{Tol: 1e-10, GainReuse: wls.ReuseOff}
	pool, err := NewPool(n, PoolOptions{WLS: wopts})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := pool.Screen(ctx, frame1, nil, nil, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	first := pool.skel

	bad := append([]meas.Measurement(nil), frame2...)
	bad[5].Value = math.NaN()
	if _, _, err := pool.Screen(ctx, bad, nil, nil, ParallelOptions{}); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("frame with a NaN value: %v, want meas.ErrBadMeasurement", err)
	}
	if _, stats, err := pool.Screen(ctx, frame2, nil, nil, ParallelOptions{}); err != nil || stats.SkeletonBuilds != 0 || stats.WarmStarts != stats.Estimated {
		t.Fatalf("sweep after the bad frame: %+v, %v", stats, err)
	}
	if pool.skel != first {
		t.Fatal("the bad frame cost the pool its skeleton")
	}

	// One meter gone: same length would need luck, a shorter frame is drift.
	drifted := append(append([]meas.Measurement(nil), frame1[:3]...), frame1[4:]...)
	res, stats, err := pool.Screen(ctx, drifted, nil, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.skel == first || stats.SkeletonBuilds != stats.Estimated || stats.WarmStarts != 0 {
		t.Fatalf("drifted layout: skeleton kept %v, %+v", pool.skel == first, stats)
	}
	for _, ce := range res {
		if !ce.Islanding {
			sameAsRebuilt(t, "drifted layout", ce, rebuiltOutage(t, n, ce.Outage, drifted, wopts))
		}
	}
}

// maskedOnlyFixture is a four-bus ring with a chord, metered so that bus 2
// is seen through branch 0 (1–2) alone: flows on every branch but 2–3,
// magnitudes at buses 1, 3 and 4, an injection pair at bus 4 — and, with
// injAt1, one at bus 1, whose Jacobian row has entries in bus 2's columns
// that the outage of the pair's only branch turns into explicit zeros.
// Outage 0 leaves 17 (19) unmasked measurements for 7 states, and θ2 and V2
// to nothing; outage 3 (4–1) leaves every bus a metered path to the slack.
func maskedOnlyFixture(t *testing.T, injAt1 bool) (*grid.Network, []meas.Measurement) {
	t.Helper()
	buses := []grid.Bus{
		{ID: 1, Type: grid.Slack, Vm: 1},
		{ID: 2, Type: grid.PQ, Pd: 10, Qd: 5, Vm: 1},
		{ID: 3, Type: grid.PQ, Pd: 10, Qd: 5, Vm: 1},
		{ID: 4, Type: grid.PQ, Pd: 10, Qd: 5, Vm: 1},
	}
	branches := []grid.Branch{
		{From: 1, To: 2, R: 0.01, X: 0.1, Status: true},
		{From: 2, To: 3, R: 0.01, X: 0.1, Status: true},
		{From: 3, To: 4, R: 0.01, X: 0.1, Status: true},
		{From: 4, To: 1, R: 0.01, X: 0.1, Status: true},
		{From: 1, To: 3, R: 0.02, X: 0.15, Status: true},
	}
	n, err := grid.New("ring4chord", 100, buses, branches, []grid.Gen{{Bus: 1, Pg: 30, Vset: 1, Status: true}})
	if err != nil {
		t.Fatal(err)
	}
	var plan []meas.Measurement
	for _, br := range []int{0, 2, 3, 4} {
		for _, from := range []bool{true, false} {
			plan = append(plan,
				meas.Measurement{Kind: meas.Pflow, Branch: br, FromSide: from, Sigma: 0.008},
				meas.Measurement{Kind: meas.Qflow, Branch: br, FromSide: from, Sigma: 0.008})
		}
	}
	for _, bus := range []int{1, 3, 4} {
		plan = append(plan, meas.Measurement{Kind: meas.Vmag, Bus: bus, Sigma: 0.004})
	}
	inj := []int{4}
	if injAt1 {
		inj = append(inj, 1)
	}
	for _, bus := range inj {
		plan = append(plan,
			meas.Measurement{Kind: meas.Pinj, Bus: bus, Sigma: 0.01},
			meas.Measurement{Kind: meas.Qinj, Bus: bus, Sigma: 0.01})
	}
	frame, err := meas.Simulate(n, plan, solved(t, n), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n, frame
}

// TestPoolMaskedOnlyStateUnobservable: an outage whose flow rows were a
// state's only measurements passes every structural check — the rows are
// still in the skeleton — and must fail as ErrUnobservable naming the
// outage, on the first sweep and on a repeat, while
// the other outages of the sweep's grid estimate. With an injection metered
// across the lost pair the state is touched by an unmasked row whose
// entries are exact zeros, which only the numerics can tell.
func TestPoolMaskedOnlyStateUnobservable(t *testing.T) {
	for _, injAt1 := range []bool{false, true} {
		n, frame := maskedOnlyFixture(t, injAt1)
		pool, err := NewPool(n, PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, _, err := pool.Screen(ctx, frame, nil, []int{3}, ParallelOptions{}); err != nil {
			t.Fatalf("inj at 1 %v: healthy outage 3: %v", injAt1, err)
		}
		for sweep := 0; sweep < 2; sweep++ {
			res, _, err := pool.Screen(ctx, frame, nil, []int{3, 0}, ParallelOptions{})
			if res != nil || !errors.Is(err, wls.ErrUnobservable) || !strings.Contains(err.Error(), "outage 0") {
				t.Fatalf("inj at 1 %v, sweep %d: outage 0: %v", injAt1, sweep, err)
			}
		}
		if _, _, err := pool.Screen(ctx, frame, nil, []int{3}, ParallelOptions{}); err != nil {
			t.Fatalf("inj at 1 %v: outage 3 after the failed sweeps: %v", injAt1, err)
		}
	}
}
