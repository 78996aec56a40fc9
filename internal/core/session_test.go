package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// frameFor simulates another acquisition cycle on the fixture's metering
// plan: same layout, fresh noise draw.
func frameFor(t *testing.T, fx *fixture, noise float64, seed int64) []meas.Measurement {
	t.Helper()
	plan := meas.FullPlan().Build(fx.net)
	plan = append(plan, PMUPlanFor(fx.dec, plan, 0.0005)...)
	ms, err := meas.Simulate(fx.net, plan, fx.truth, noise, seed)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return ms
}

// sessionSnap captures the pointers a reuse test needs to assert identity.
type sessionSnap struct {
	sp1, sp2   *Subproblem
	eng1, eng2 *wls.Engine
	mod1, mod2 *meas.Model
}

func snapshotSession(t *testing.T, s *Session) []sessionSnap {
	t.Helper()
	if s == nil {
		t.Fatal("the decomposition owns no session after a run")
	}
	snaps := make([]sessionSnap, len(s.subs))
	for si := range s.subs {
		sl := &s.subs[si]
		if sl.step1 == nil || sl.step2 == nil || sl.eng1 == nil || sl.eng2 == nil {
			t.Fatalf("subsystem %d: session slot not fully materialized after a run", si)
		}
		snaps[si] = sessionSnap{
			sp1: sl.step1, sp2: sl.step2,
			eng1: sl.eng1, eng2: sl.eng2,
			mod1: sl.step1.Model, mod2: sl.step2.Model,
		}
	}
	return snaps
}

// TestSessionSkeletonIdentityAcrossFrames: a second frame on the same
// session performs zero subproblem construction and zero symbolic plan
// builds — every skeleton, model, and engine pointer survives — and the
// refreshed run matches a from-scratch decomposition bit-for-bit to 1e-9.
func TestSessionSkeletonIdentityAcrossFrames(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	frame2 := frameFor(t, fx, 1, 12)
	opts := DSEOptions{Rounds: 2}

	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, opts); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	snaps := snapshotSession(t, fx.dec.session)

	res2, err := RunDSE(context.Background(), fx.dec, frame2, opts)
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	for si := range fx.dec.session.subs {
		sl := &fx.dec.session.subs[si]
		if sl.step1 != snaps[si].sp1 || sl.step2 != snaps[si].sp2 {
			t.Errorf("subsystem %d: skeleton rebuilt on frame 2 (value refresh expected)", si)
		}
		if sl.eng1 != snaps[si].eng1 || sl.eng2 != snaps[si].eng2 {
			t.Errorf("subsystem %d: engine rebuilt on frame 2 (symbolic plan reuse expected)", si)
		}
		if sl.step1.Model != snaps[si].mod1 || sl.step2.Model != snaps[si].mod2 {
			t.Errorf("subsystem %d: model reallocated on frame 2", si)
		}
	}

	// A refreshed session must reproduce a cold, fully rebuilt run.
	dec2, err := Decompose(fx.net, 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunDSE(context.Background(), dec2, frame2, DSEOptions{Rounds: 2})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for i := range base.State.Vm {
		if d := math.Abs(res2.State.Vm[i] - base.State.Vm[i]); d > 1e-9 {
			t.Fatalf("bus %d: refreshed-session Vm differs from rebuild baseline by %g", fx.net.Buses[i].ID, d)
		}
		if d := math.Abs(res2.State.Va[i] - base.State.Va[i]); d > 1e-9 {
			t.Fatalf("bus %d: refreshed-session Va differs from rebuild baseline by %g", fx.net.Buses[i].ID, d)
		}
	}
}

// TestSessionSkeletonIdentityAcrossRounds: the Step-2 skeleton built in a
// one-round run is the same object after a later three-round run — if any
// round had rebuilt instead of refreshed, the slot would hold a different
// pointer afterwards.
func TestSessionSkeletonIdentityAcrossRounds(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotSession(t, fx.dec.session)
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	for si := range fx.dec.session.subs {
		sl := &fx.dec.session.subs[si]
		if sl.step2 != snaps[si].sp2 || sl.eng2 != snaps[si].eng2 {
			t.Errorf("subsystem %d: Step-2 skeleton/engine rebuilt during a multi-round run", si)
		}
	}
}

// TestSessionCrossRoundWarmStart: warm-started Step-2 rounds spend no more
// Gauss–Newton iterations than cold-started ones, and land on the same
// estimate.
func TestSessionCrossRoundWarmStart(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	warm, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 4, noStep2WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Step2Stats.Iterations > cold.Step2Stats.Iterations {
		t.Errorf("warm-started rounds took %d GN iterations vs %d cold", warm.Step2Stats.Iterations, cold.Step2Stats.Iterations)
	}
	var worst float64
	for i := range warm.State.Vm {
		worst = math.Max(worst, math.Abs(warm.State.Vm[i]-cold.State.Vm[i]))
		worst = math.Max(worst, math.Abs(warm.State.Va[i]-cold.State.Va[i]))
	}
	if worst > 1e-6 {
		t.Errorf("warm and cold multi-round estimates differ by %g", worst)
	}
	t.Logf("step-2 GN iterations over 4 rounds: warm %d, cold %d", warm.Step2Stats.Iterations, cold.Step2Stats.Iterations)
}

// TestSessionRebuildOnLayoutChange: when the frame layout drifts (an extra
// measurement appears), the session transparently rebuilds instead of
// refreshing into a stale skeleton.
func TestSessionRebuildOnLayoutChange(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	opts := DSEOptions{}
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, opts); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotSession(t, fx.dec.session)

	grown := append(append([]meas.Measurement{}, fx.ms...), fx.ms[0])
	if _, err := RunDSE(context.Background(), fx.dec, grown, opts); err != nil {
		t.Fatalf("run after layout change: %v", err)
	}
	rebuilt := false
	for si := range fx.dec.session.subs {
		if fx.dec.session.subs[si].step1 != snaps[si].sp1 {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Error("no skeleton rebuilt although the frame gained a measurement")
	}
	// And back to the original layout: rebuild again, still correct.
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, opts); err != nil {
		t.Fatalf("run after reverting layout: %v", err)
	}
}

// TestSessionRestorationRefresh: the observability-restoration path also
// survives value-only refreshes — restored pseudo entries are rebound to
// the new frame's reference angle rather than rebuilt.
func TestSessionRestorationRefresh(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	frame2 := frameFor(t, fx, 1, 17)
	opts := DSEOptions{RestoreObservability: true}
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, opts); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotSession(t, fx.dec.session)
	res, err := RunDSE(context.Background(), fx.dec, frame2, opts)
	if err != nil {
		t.Fatalf("restored frame 2: %v", err)
	}
	for si := range fx.dec.session.subs {
		if fx.dec.session.subs[si].step1 != snaps[si].sp1 {
			t.Errorf("subsystem %d: restored Step-1 skeleton rebuilt on frame 2", si)
		}
	}
	var worst float64
	for i := range res.State.Vm {
		worst = math.Max(worst, math.Abs(res.State.Vm[i]-fx.truth.Vm[i]))
	}
	if worst > 0.05 {
		t.Errorf("max Vm error %g on refreshed restored frame", worst)
	}
}

// TestSessionRestorationStiffMeter: a voltage meter as precise as σ 1e-11
// leaves every subsystem observable, so restoration puts no
// pseudo-measurement into any Step-1 skeleton. A check that weighs the
// meters sees the stiff one as rank loss here and adds 28.
func TestSessionRestorationStiffMeter(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	ms := append([]meas.Measurement(nil), fx.ms...)
	for i, m := range ms {
		if m.Kind == meas.Vmag {
			ms[i].Sigma = 1e-11
			break
		}
	}
	if _, err := RunDSE(context.Background(), fx.dec, ms, DSEOptions{RestoreObservability: true}); err != nil {
		t.Fatal(err)
	}
	for si, sl := range fx.dec.session.subs {
		if n := len(sl.step1.restored); n != 0 {
			t.Errorf("subsystem %d: restoration added %d pseudo-measurements", si, n)
		}
	}
}

// TestSessionConfigChangeRebuilds: DSEOptions that alter skeleton content
// (pseudo sigma, restoration) must not be served by a stale session.
func TestSessionConfigChangeRebuilds(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{}); err != nil {
		t.Fatal(err)
	}
	first := fx.dec.session
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{PseudoSigma: 0.05}); err != nil {
		t.Fatal(err)
	}
	if fx.dec.session == first {
		t.Error("session survived a PseudoSigma change")
	}
	// Same config again: the new session is kept.
	second := fx.dec.session
	if _, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{PseudoSigma: 0.05}); err != nil {
		t.Fatal(err)
	}
	if fx.dec.session != second {
		t.Error("session not reused under an unchanged config")
	}
}

// TestTrackerSteadyStateAllocs: after the first frame pays the symbolic
// build, a tracked frame allocates a small fraction of the cold cost —
// the observable consequence of zero construction in steady state.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	tracker := NewTracker(fx.dec, DSEOptions{})
	// In index order on this goroutine, so that no helper's start lands in
	// either count.
	pl := inOrder{inProcess{fx.dec}}
	ctx := context.Background()

	mallocs := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	cold := mallocs(func() {
		if _, err := tracker.stepOn(ctx, pl, fx.ms); err != nil {
			t.Errorf("cold frame: %v", err)
		}
	})
	// One settling frame, then measure steady state.
	if _, err := tracker.stepOn(ctx, pl, fx.ms); err != nil {
		t.Fatal(err)
	}
	steady := mallocs(func() {
		if _, err := tracker.stepOn(ctx, pl, fx.ms); err != nil {
			t.Errorf("steady frame: %v", err)
		}
	})
	if steady*2 > cold {
		t.Errorf("steady-state frame allocates %d objects vs %d cold — session reuse ineffective", steady, cold)
	}
	t.Logf("tracker frame allocations: cold %d, steady %d", cold, steady)
}

// TestTrackerResetAfterRedecompose: the regression the Reset contract
// exists for — after a topology change and a fresh decomposition, Reset
// drops skeletons, engines, and warm state together, and the next frame
// runs on the new layout with no stale-skeleton error.
func TestTrackerResetAfterRedecompose(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	tracker := NewTracker(fx.dec, DSEOptions{})
	if _, err := tracker.Process(fx.ms); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.Process(fx.ms); err != nil {
		t.Fatal(err)
	}

	// Outage one circuit of the 49-66 double line and re-solve.
	n := grid.Case118()
	out := -1
	for bi, br := range n.Branches {
		if br.From == 49 && br.To == 66 {
			out = bi
			break
		}
	}
	if out < 0 {
		t.Fatal("branch 49-66 not found")
	}
	n.Branches[out].Status = false
	pfRes, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := Decompose(n, 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, PMUPlanFor(dec2, plan, 0.0005)...)
	ms2, err := meas.Simulate(n, plan, pfRes.State, 1, 5)
	if err != nil {
		t.Fatal(err)
	}

	tracker.Dec = dec2
	tracker.Reset()
	if tracker.Frames != 0 {
		t.Error("Reset did not clear the frame counter")
	}
	res, err := tracker.Process(ms2)
	if err != nil {
		t.Fatalf("frame on re-decomposed network after Reset: %v", err)
	}
	var worst float64
	for i := range res.State.Vm {
		worst = math.Max(worst, math.Abs(res.State.Vm[i]-pfRes.State.Vm[i]))
	}
	if worst > 0.03 {
		t.Errorf("max Vm error %g after re-decomposition", worst)
	}
}

// TestSessionConcurrentRunsSameDecomposition: two orchestrator calls
// racing on one decomposition must not share mutable session state — the
// loser of the TryLock gets a private session, and both produce the same
// estimate. Run with -race, this also proves the slots are not contended.
func TestSessionConcurrentRunsSameDecomposition(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	const runs = 4
	results := make([]*DSEResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for k := 0; k < runs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 2})
		}(k)
	}
	wg.Wait()
	for k := 0; k < runs; k++ {
		if errs[k] != nil {
			t.Fatalf("concurrent run %d: %v", k, errs[k])
		}
	}
	for k := 1; k < runs; k++ {
		for i := range results[0].State.Vm {
			if d := math.Abs(results[k].State.Vm[i] - results[0].State.Vm[i]); d > 1e-12 {
				t.Fatalf("run %d bus %d: Vm differs by %g from run 0", k, fx.net.Buses[i].ID, d)
			}
		}
	}
}

// TestSubproblemUpdateRejectsStaleLayout: the value-refresh entry points
// detect every kind of drift they guard against and wrap ErrStaleSkeleton.
func TestSubproblemUpdateRejectsStaleLayout(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	sp, err := fx.dec.BuildStep1(0, fx.ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.UpdateMeasurements(fx.ms); err != nil {
		t.Fatalf("refresh with identical frame: %v", err)
	}
	// Pick a global measurement the skeleton actually maps.
	gi := -1
	for _, s := range sp.src {
		if s >= 0 {
			gi = int(s)
			break
		}
	}
	if gi < 0 {
		t.Fatal("skeleton has no mapped telemetry")
	}
	short := fx.ms[:len(fx.ms)-1]
	if err := sp.UpdateMeasurements(short); !errors.Is(err, ErrStaleSkeleton) {
		t.Errorf("shorter frame accepted: %v", err)
	}
	mutated := append([]meas.Measurement{}, fx.ms...)
	if mutated[gi].Kind == meas.Vmag {
		mutated[gi].Kind = meas.Angle
	} else {
		mutated[gi].Kind = meas.Vmag
	}
	if err := sp.UpdateMeasurements(mutated); !errors.Is(err, ErrStaleSkeleton) {
		t.Errorf("kind drift accepted: %v", err)
	}
	mutated = append([]meas.Measurement{}, fx.ms...)
	mutated[gi].Sigma *= 2
	if err := sp.UpdateMeasurements(mutated); !errors.Is(err, ErrStaleSkeleton) {
		t.Errorf("sigma drift accepted: %v", err)
	}
}
