package contingency

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/wls"
)

// poolFrames simulates two telemetry frames (different noise draws, same
// layout) from the solved state.
func poolFrames(t *testing.T, n *grid.Network, plan []meas.Measurement) (f1, f2 []meas.Measurement) {
	t.Helper()
	st := solved(t, n)
	var err error
	if f1, err = meas.Simulate(n, plan, st, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f2, err = meas.Simulate(n, plan, st, 1, 2); err != nil {
		t.Fatal(err)
	}
	return f1, f2
}

// TestPoolRescreenEquivalence is the tentpole acceptance test: re-screening
// an unchanged contingency list on a second frame performs zero skeleton
// constructions, produces estimates within 1e-9 of a cold per-outage sweep,
// and spends fewer Gauss–Newton iterations than the cold sweep.
func TestPoolRescreenEquivalence(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ReusePrecond keeps the gain operator exact, so pooled estimates stay
	// pinned to the cold path; the tight tolerance keeps the warm-started
	// and flat-started fixed points within 1e-9 of each other.
	wopts := wls.Options{Tol: 1e-9, GainReuse: wls.ReusePrecond}
	popts := ParallelOptions{Workers: 3, Scheduling: CounterScheduling}
	ctx := context.Background()

	pool, err := NewPool(n, PoolOptions{WLS: wopts})
	if err != nil {
		t.Fatal(err)
	}
	res1, stats1, err := pool.Screen(ctx, frame1, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Estimated == 0 || stats1.Islanding == 0 {
		t.Fatalf("unexpected first sweep: %+v", stats1)
	}
	if stats1.SkeletonBuilds != stats1.Estimated {
		t.Fatalf("first sweep built %d skeletons for %d estimated cases", stats1.SkeletonBuilds, stats1.Estimated)
	}

	res2, stats2, err := pool.Screen(ctx, frame2, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SkeletonBuilds != 0 {
		t.Fatalf("re-screen performed %d skeleton builds, want 0", stats2.SkeletonBuilds)
	}
	if stats2.WarmStarts != stats2.Estimated {
		t.Errorf("re-screen warm-started %d of %d cases", stats2.WarmStarts, stats2.Estimated)
	}

	cold, err := NewPool(n, PoolOptions{WLS: wopts})
	if err != nil {
		t.Fatal(err)
	}
	resC, statsC, err := cold.Screen(ctx, frame2, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.GNIterations >= statsC.GNIterations {
		t.Errorf("pooled re-screen used %d GN iterations, cold sweep %d — warm starts saved nothing",
			stats2.GNIterations, statsC.GNIterations)
	}
	if len(res2) != len(resC) || len(res2) != len(res1) {
		t.Fatalf("case counts differ: %d vs %d", len(res2), len(resC))
	}
	for i := range res2 {
		w, c := res2[i], resC[i]
		if w.Outage != c.Outage || w.Islanding != c.Islanding {
			t.Fatalf("case %d differs structurally", i)
		}
		if w.Islanding {
			continue
		}
		for b := range w.Estimate.State.Vm {
			if d := math.Abs(w.Estimate.State.Vm[b] - c.Estimate.State.Vm[b]); d > 1e-9 {
				t.Fatalf("case %d bus %d Vm differs by %g", i, b, d)
			}
			if d := math.Abs(w.Estimate.State.Va[b] - c.Estimate.State.Va[b]); d > 1e-9 {
				t.Fatalf("case %d bus %d Va differs by %g", i, b, d)
			}
		}
		if len(w.Violations) != len(c.Violations) {
			t.Fatalf("case %d violation count differs: %d vs %d", i, len(w.Violations), len(c.Violations))
		}
	}
}

// TestPoolGainReuseDefault checks the pool resolves ReuseAuto to the
// tracking tier: a quiescent re-screen skips gain refreshes.
func TestPoolGainReuseDefault(t *testing.T) {
	n := grid.Case14()
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	popts := ParallelOptions{Workers: 2}
	if _, _, err := pool.Screen(ctx, frame1, nil, nil, popts); err != nil {
		t.Fatal(err)
	}
	_, stats2, err := pool.Screen(ctx, frame2, nil, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.GainSkips == 0 {
		t.Errorf("re-screen skipped no gain refreshes under the default reuse tier: %+v", stats2)
	}
}

// TestPoolIslandingMatchesDC checks the pool's islanding verdicts agree
// with the DC screen's.
func TestPoolIslandingMatchesDC(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	plan := meas.FullPlan().Build(n)
	frame1, _ := poolFrames(t, n, plan)
	ratings, err := AutoRatings(n, st, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dc, err := ParallelScreen(ctx, n, st, ratings, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := pool.Screen(ctx, frame1, ratings, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != len(dc) {
		t.Fatalf("%d pooled cases vs %d DC cases", len(est), len(dc))
	}
	for i := range est {
		if est[i].Outage != dc[i].Outage || est[i].Islanding != dc[i].Islanding {
			t.Fatalf("case %d: pooled %+v vs DC %+v", i, est[i].Result, dc[i])
		}
		if est[i].Islanding && est[i].Estimate != nil {
			t.Fatalf("case %d: islanding case carries an estimate", i)
		}
	}
}

// TestPoolTopologyInvalidation mutates the base topology between sweeps and
// checks every entry is dropped and rebuilt.
func TestPoolTopologyInvalidation(t *testing.T) {
	n := grid.Case14()
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plan := meas.FullPlan().Build(n)
	frame1, _ := poolFrames(t, n, plan)
	_, stats1, err := pool.Screen(ctx, frame1, nil, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.SkeletonBuilds == 0 {
		t.Fatal("first sweep built nothing")
	}

	// Take a looped branch out of service: the topology signature changes,
	// the case list shrinks, and the telemetry layout follows the new grid.
	out := -1
	chk := newIslandChecker(n)
	for bi, br := range n.Branches {
		if br.Status && !chk.islands(bi) {
			out = bi
			break
		}
	}
	n.Branches[out].Status = false
	plan2 := meas.FullPlan().Build(n)
	st2 := solved(t, n)
	frame2, err := meas.Simulate(n, plan2, st2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, stats2, err := pool.Screen(ctx, frame2, nil, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SkeletonBuilds != stats2.Estimated {
		t.Fatalf("topology change rebuilt %d of %d entries", stats2.SkeletonBuilds, stats2.Estimated)
	}
}

// TestPoolCaseListPruning checks entries leaving the requested case list
// are dropped (and rebuilt when they return).
func TestPoolCaseListPruning(t *testing.T) {
	n := grid.Case14()
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	chk := newIslandChecker(n)
	var cases []int
	for bi, br := range n.Branches {
		if br.Status && !chk.islands(bi) {
			cases = append(cases, bi)
		}
		if len(cases) == 2 {
			break
		}
	}
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, s1, err := pool.Screen(ctx, frame1, nil, cases, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.SkeletonBuilds != 2 {
		t.Fatalf("built %d entries for 2 cases", s1.SkeletonBuilds)
	}
	if _, s2, err := pool.Screen(ctx, frame2, nil, cases[:1], ParallelOptions{}); err != nil {
		t.Fatal(err)
	} else if s2.SkeletonBuilds != 0 {
		t.Fatalf("narrowed sweep rebuilt %d entries", s2.SkeletonBuilds)
	}
	// The pruned outage must rebuild when it returns.
	if _, s3, err := pool.Screen(ctx, frame1, nil, cases, ParallelOptions{}); err != nil {
		t.Fatal(err)
	} else if s3.SkeletonBuilds != 1 {
		t.Fatalf("returning outage rebuilt %d entries, want 1", s3.SkeletonBuilds)
	}
}

// TestPoolDeterministicError checks the pool inherits schedule()'s error
// contract: with every case failing (unobservable frame), the reported
// error is always the first requested case's, under both scheduling modes.
func TestPoolDeterministicError(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	// Voltage magnitudes alone leave every angle unobservable.
	var plan []meas.Measurement
	for _, b := range n.Buses {
		plan = append(plan, meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 0.004})
	}
	frame, err := meas.Simulate(n, plan, st, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	chk := newIslandChecker(n)
	var cases []int
	for bi, br := range n.Branches {
		if br.Status && !chk.islands(bi) {
			cases = append(cases, bi)
		}
	}
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		for rep := 0; rep < 5; rep++ {
			pool, err := NewPool(n, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := pool.Screen(context.Background(), frame, nil, cases, ParallelOptions{Workers: 4, Scheduling: sched})
			if err == nil {
				t.Fatalf("sched=%v: unobservable sweep succeeded", sched)
			}
			if res != nil {
				t.Fatalf("sched=%v: partial results returned with error", sched)
			}
			if !errors.Is(err, wls.ErrUnobservable) {
				t.Fatalf("sched=%v: error %v does not wrap ErrUnobservable", sched, err)
			}
			want := "outage " + strconv.Itoa(cases[0])
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("sched=%v rep=%d: error %q is not the first case's (%s)", sched, rep, err, want)
			}
		}
	}
}

// ringUnobservableFixture builds a 4-bus ring whose telemetry leans on
// branches 0 and 1: outaging either drops four flow meters and leaves fewer
// measurements than states (m = 6 < n = 7), failing deterministically
// through the rank check rather than through fragile numerics, while
// outaging the unmetered branch 3 keeps all ten measurements and stays
// estimable.
func ringUnobservableFixture(t *testing.T) (*grid.Network, []meas.Measurement) {
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
	}
	gens := []grid.Gen{{Bus: 1, Pg: 30, Vset: 1, Status: true}}
	n, err := grid.New("ring4", 100, buses, branches, gens)
	if err != nil {
		t.Fatal(err)
	}
	st := solved(t, n)
	plan := []meas.Measurement{
		{Kind: meas.Pflow, Branch: 0, FromSide: true, Sigma: 0.008},
		{Kind: meas.Pflow, Branch: 0, FromSide: false, Sigma: 0.008},
		{Kind: meas.Qflow, Branch: 0, FromSide: true, Sigma: 0.008},
		{Kind: meas.Qflow, Branch: 0, FromSide: false, Sigma: 0.008},
		{Kind: meas.Pflow, Branch: 1, FromSide: true, Sigma: 0.008},
		{Kind: meas.Pflow, Branch: 1, FromSide: false, Sigma: 0.008},
		{Kind: meas.Qflow, Branch: 1, FromSide: true, Sigma: 0.008},
		{Kind: meas.Qflow, Branch: 1, FromSide: false, Sigma: 0.008},
		{Kind: meas.Pinj, Bus: 4, Sigma: 0.008},
		{Kind: meas.Qinj, Bus: 4, Sigma: 0.008},
	}
	frame, err := meas.Simulate(n, plan, st, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n, frame
}

// TestPoolBatchedDrainOrderDeterministicError checks drain-aware unit
// packing keeps schedule()'s error contract on the batched path: whatever
// order recorded per-case costs induce, a sweep with failing cases always
// reports the first requested case's error with no partial results, under
// both scheduling modes. The second sweep of each pool runs with cost
// history (only the successful outage 3 has any, so it sorts ahead of the
// history-less failures), exercising the cross-unit failure watermark on a
// genuinely reordered sweep.
func TestPoolBatchedDrainOrderDeterministicError(t *testing.T) {
	n, frame := ringUnobservableFixture(t)
	ctx := context.Background()

	// Fixture sanity: the unmetered outage on its own must estimate fine.
	ok, err := NewPool(n, PoolOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ok.Screen(ctx, frame, nil, []int{3}, ParallelOptions{}); err != nil {
		t.Fatalf("healthy outage failed: %v", err)
	}

	cases := []int{0, 1, 3}
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		for rep := 0; rep < 3; rep++ {
			pool, err := NewPool(n, PoolOptions{Batch: 2})
			if err != nil {
				t.Fatal(err)
			}
			for sweep := 0; sweep < 2; sweep++ {
				res, _, err := pool.Screen(ctx, frame, nil, cases, ParallelOptions{Workers: 3, Scheduling: sched})
				if err == nil {
					t.Fatalf("sched=%v sweep=%d: sweep with unobservable outages succeeded", sched, sweep)
				}
				if res != nil {
					t.Fatalf("sched=%v sweep=%d: partial results returned with error", sched, sweep)
				}
				if !errors.Is(err, wls.ErrUnobservable) {
					t.Fatalf("sched=%v sweep=%d: error %v does not wrap ErrUnobservable", sched, sweep, err)
				}
				if want := "outage 0"; !strings.Contains(err.Error(), want) {
					t.Fatalf("sched=%v rep=%d sweep=%d: error %q is not the first case's (%s)",
						sched, rep, sweep, err, want)
				}
			}
		}
	}
}

// TestPoolPrecondBreakdownDegradesToJacobi: outage 3 of the ring fixture
// has a singular gain at the flat start — semidefinite but consistent, so
// Jacobi-CG solves it while no factor exists. The default preconditioner
// must run those refreshes on Jacobi, count them through SweepStats, and
// land within 1e-9 of a pool configured with Jacobi outright.
func TestPoolPrecondBreakdownDegradesToJacobi(t *testing.T) {
	n, frame := ringUnobservableFixture(t)
	ctx := context.Background()
	screen := func(opts wls.Options) (CaseEstimate, SweepStats) {
		t.Helper()
		pool, err := NewPool(n, PoolOptions{WLS: opts})
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := pool.Screen(ctx, frame, nil, []int{3}, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], stats
	}
	got, stats := screen(wls.Options{})
	want, jstats := screen(wls.Options{Precond: wls.PrecondJacobi})
	if stats.PrecondFallbacks == 0 {
		t.Fatal("singular flat-start gain was not counted as a factorization breakdown")
	}
	if stats.PrecondFallbacks >= stats.GNIterations {
		t.Fatalf("%d breakdowns over %d Gauss–Newton iterations: the factor never recovered off the flat start",
			stats.PrecondFallbacks, stats.GNIterations)
	}
	if jstats.PrecondFallbacks != 0 {
		t.Fatalf("Jacobi pool reported %d factorization breakdowns", jstats.PrecondFallbacks)
	}
	if stats.GNIterations != jstats.GNIterations {
		t.Fatalf("%d Gauss–Newton iterations, Jacobi pool %d", stats.GNIterations, jstats.GNIterations)
	}
	for i, v := range want.Estimate.X {
		if d := math.Abs(got.Estimate.X[i] - v); d > 1e-9 {
			t.Fatalf("x[%d] = %v, Jacobi pool %v", i, got.Estimate.X[i], v)
		}
	}
}

func TestPoolValidation(t *testing.T) {
	n := grid.Case14()
	plan := meas.FullPlan().Build(n)
	frame1, _ := poolFrames(t, n, plan)
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := pool.Screen(ctx, frame1, []float64{1}, nil, ParallelOptions{}); err == nil {
		t.Fatal("short ratings accepted")
	}
	if _, _, err := pool.Screen(ctx, frame1, nil, []int{len(n.Branches)}, ParallelOptions{}); err == nil {
		t.Fatal("out-of-range outage accepted")
	}
	if _, _, err := pool.Screen(ctx, frame1, nil, []int{0, 0}, ParallelOptions{}); err == nil {
		t.Fatal("duplicate outage accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	res, _, err := pool.Screen(canceled, frame1, nil, nil, ParallelOptions{})
	if err == nil || res != nil {
		t.Fatal("pre-canceled context accepted")
	}
	// Decomposition over a different network is rejected at construction.
	n2 := grid.Case14()
	dec, err := core.Decompose(n2, 2, core.DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(n, PoolOptions{Decomposition: dec}); err == nil {
		t.Fatal("foreign decomposition accepted")
	}
}

// TestPoolDistributed runs the decomposition-backed pool: each outage gets
// a perturbed decomposition and tracker, and the second frame performs zero
// subproblem constructions.
func TestPoolDistributed(t *testing.T) {
	n := grid.Case118()
	dec, err := core.Decompose(n, 4, core.DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// PMUs everywhere: connectivity repair can move reference buses on
	// perturbed decompositions, so every bus must carry an angle.
	plan := meas.PlanOptions{VoltageAt: 1, InjectionsAt: 1, FlowsAt: 1, PMUAt: 1, Sigmas: meas.DefaultSigmas()}.Build(n)
	frame1, frame2 := poolFrames(t, n, plan)

	chk := newIslandChecker(n)
	var cases []int
	for bi, br := range n.Branches {
		if br.Status && !chk.islands(bi) {
			cases = append(cases, bi)
		}
		if len(cases) == 3 {
			break
		}
	}
	pool, err := NewPool(n, PoolOptions{Decomposition: dec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res1, stats1, err := pool.Screen(ctx, frame1, nil, cases, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.SkeletonBuilds == 0 {
		t.Fatal("first distributed sweep built nothing")
	}
	for i, ce := range res1 {
		if ce.DSE == nil || ce.Estimate != nil {
			t.Fatalf("case %d: want DSE result only, got %+v", i, ce)
		}
	}
	res2, stats2, err := pool.Screen(ctx, frame2, nil, cases, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SkeletonBuilds != 0 {
		t.Fatalf("distributed re-screen performed %d skeleton builds, want 0", stats2.SkeletonBuilds)
	}
	if stats2.WarmStarts != len(cases) {
		t.Errorf("re-screen warm-started %d of %d cases", stats2.WarmStarts, len(cases))
	}
	// The estimate should track the true state closely on the full plan.
	truth := solved(t, n)
	for i, ce := range res2 {
		for b := range truth.Vm {
			if math.Abs(ce.DSE.State.Vm[b]-truth.Vm[b]) > 0.05 {
				t.Fatalf("case %d bus %d Vm off by > 0.05", i, b)
			}
		}
	}
}

// TestPoolBatchedEquivalence: a batched pool (Batch >= 2) reproduces the
// scalar pool's estimates within 1e-9 on every case of a full IEEE-118
// sweep, falls back cleanly on the cold first frame (no warm starts inside
// the anchor gate yet), and actually serves cases batched on the warm
// re-screen with zero skeleton builds.
func TestPoolBatchedEquivalence(t *testing.T) {
	n := grid.Case118()
	st := solved(t, n)
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tol 1e-9 lands both paths well within the 1e-9 comparison bound of
	// the exact minimizer (see TestBatchEngineMatchesScalar).
	wopts := wls.Options{Tol: 1e-9}
	popts := ParallelOptions{Workers: 4, Scheduling: CounterScheduling}
	ctx := context.Background()

	scalar, err := NewPool(n, PoolOptions{WLS: wopts})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewPool(n, PoolOptions{WLS: wopts, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}

	compare := func(tag string, a, b []CaseEstimate) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d scalar cases vs %d batched", tag, len(a), len(b))
		}
		for i := range a {
			s, g := a[i], b[i]
			if s.Outage != g.Outage || s.Islanding != g.Islanding {
				t.Fatalf("%s case %d differs structurally", tag, i)
			}
			if s.Islanding {
				continue
			}
			for bus := range s.Estimate.State.Vm {
				if d := math.Abs(s.Estimate.State.Vm[bus] - g.Estimate.State.Vm[bus]); d > 1e-9 {
					t.Fatalf("%s case %d bus %d Vm differs by %g", tag, i, bus, d)
				}
				if d := math.Abs(s.Estimate.State.Va[bus] - g.Estimate.State.Va[bus]); d > 1e-9 {
					t.Fatalf("%s case %d bus %d Va differs by %g", tag, i, bus, d)
				}
			}
			if len(s.Violations) != len(g.Violations) {
				t.Fatalf("%s case %d violation count differs: %d vs %d", tag, i, len(s.Violations), len(g.Violations))
			}
		}
	}

	resS1, _, err := scalar.Screen(ctx, frame1, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	resB1, statsB1, err := batched.Screen(ctx, frame1, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	compare("frame1", resS1, resB1)
	if statsB1.Reanchors != 1 {
		t.Fatalf("first batched sweep re-anchored %d times, want 1", statsB1.Reanchors)
	}
	if statsB1.BatchedCases+statsB1.BatchFallbacks != statsB1.Estimated {
		t.Fatalf("batched/fallback split %d+%d does not cover %d estimated cases",
			statsB1.BatchedCases, statsB1.BatchFallbacks, statsB1.Estimated)
	}

	resS2, _, err := scalar.Screen(ctx, frame2, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	resB2, statsB2, err := batched.Screen(ctx, frame2, ratings, nil, popts)
	if err != nil {
		t.Fatal(err)
	}
	compare("frame2", resS2, resB2)
	if statsB2.SkeletonBuilds != 0 {
		t.Fatalf("batched re-screen performed %d skeleton builds, want 0", statsB2.SkeletonBuilds)
	}
	if statsB2.WarmStarts != statsB2.Estimated {
		t.Errorf("batched re-screen warm-started %d of %d cases", statsB2.WarmStarts, statsB2.Estimated)
	}
	if statsB2.BatchedCases == 0 {
		t.Fatalf("warm batched re-screen served no case batched: %+v", statsB2)
	}
	t.Logf("re-screen: %d/%d batched (%d fallbacks)", statsB2.BatchedCases, statsB2.Estimated, statsB2.BatchFallbacks)
}
