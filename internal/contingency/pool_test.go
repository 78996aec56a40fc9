package contingency

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/sparse"
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

// rebuiltOutage estimates one outage cold the slow way — a copy of the
// network with the branch out, a measurement model over the frame without
// that branch's flows, a fresh engine — sharing none of the pool's skeleton,
// views or clones.
func rebuiltOutage(t *testing.T, n *grid.Network, out int, frame []meas.Measurement, opts wls.Options) *wls.Result {
	t.Helper()
	res, err := wls.NewEngine(rebuiltModel(t, n, out, frame)).Estimate(opts)
	if err != nil {
		t.Fatalf("outage %d: rebuilt estimate: %v", out, err)
	}
	return res
}

// rebuiltModel is rebuiltOutage's measurement model: the network copy with
// branch out open and the frame without that branch's flows.
func rebuiltModel(t *testing.T, n *grid.Network, out int, frame []meas.Measurement) *meas.Model {
	t.Helper()
	pnet := n.Clone()
	pnet.Branches[out].Status = false
	ref := pnet.SlackIndex()
	var ms []meas.Measurement
	refAngle := 0.0
	for _, m := range frame {
		if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out {
			continue
		}
		if m.Kind == meas.Angle && m.Bus == pnet.Buses[ref].ID {
			refAngle = m.Value
		}
		ms = append(ms, m)
	}
	mod, err := meas.NewModel(pnet, ms, ref, refAngle)
	if err != nil {
		t.Fatalf("outage %d: rebuilt model: %v", out, err)
	}
	return mod
}

// oracleOutage is the pool's independent oracle: Gauss–Newton from the flat
// start on the rebuilt model, each step a dense LU solve of a freshly
// assembled G·Δx = HᵀW·r, until ‖Δx‖∞ < 1e-9. It shares no factor, plan,
// engine, CloneFor or SharePattern state with the pool.
func oracleOutage(t *testing.T, n *grid.Network, out int, frame []meas.Measurement) powerflow.State {
	t.Helper()
	mod := rebuiltModel(t, n, out, frame)
	x, w := mod.FlatVec(), mod.Weights()
	r := make([]float64, mod.NMeas())
	for iter := 0; iter < 25; iter++ {
		for i, m := range mod.Meas {
			r[i] = m.Value
		}
		sparse.Sub(r, r, mod.Eval(x))
		hj := mod.Jacobian(x)
		dx, err := sparse.SolveDense(sparse.Gain(hj, w).ToDense(), sparse.GainRHS(hj, w, r))
		if err != nil {
			t.Fatalf("outage %d: dense oracle: %v", out, err)
		}
		sparse.Axpy(1, dx, x)
		if sparse.NormInf(dx) < 1e-9 {
			return mod.VecToState(x)
		}
	}
	t.Fatalf("outage %d: dense oracle did not converge", out)
	return powerflow.State{}
}

// TestPoolRescreenEquivalence is the pool's acceptance test: re-screening
// an unchanged contingency list on a second frame performs zero skeleton
// constructions, produces estimates within 1e-9 of a cold per-outage sweep,
// and spends fewer Gauss–Newton iterations than the cold sweep. The first,
// the last and (where the grid has one) a parallel-circuit estimated case
// of the warm sweep are also held to 1e-6 of the dense oracle, so the pool
// is not checked against its own cold path alone.
func TestPoolRescreenEquivalence(t *testing.T) {
	// IEEE-14 has no parallel circuits; IEEE-118 has several.
	t.Run("ieee14", func(t *testing.T) { testRescreenEquivalence(t, grid.Case14(), false) })
	t.Run("ieee118", func(t *testing.T) { testRescreenEquivalence(t, grid.Case118(), true) })
}

func testRescreenEquivalence(t *testing.T, n *grid.Network, wantParallel bool) {
	st := solved(t, n)
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ReuseOff keeps the gain operator exact, so pooled estimates stay
	// pinned to the cold path; the tight tolerance keeps the warm-started
	// and flat-started fixed points within 1e-9 of each other.
	wopts := wls.Options{Tol: 1e-9, GainReuse: wls.ReuseOff}
	popts := ParallelOptions{Workers: 3}
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
	// Every case of the warm sweep has a solution to start from, so no seed
	// solve runs and the sweep's counters are its cases' alone.
	var sum wls.Counters
	for _, ce := range res2 {
		if ce.Estimate != nil {
			sum.Add(ce.Estimate.Counters)
		}
	}
	if stats2.Counters != sum {
		t.Errorf("re-screen counters %+v, its cases sum to %+v", stats2.Counters, sum)
	}
	if stats2.GNIterations != stats2.Iterations {
		t.Errorf("GNIterations %d, Iterations %d", stats2.GNIterations, stats2.Iterations)
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

	// Independent oracle on the first, last and one parallel-circuit case.
	first, last, parallel := -1, -1, -1
	for i, ce := range res2 {
		if ce.Islanding {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		if parallel >= 0 {
			continue
		}
		br := n.Branches[ce.Outage]
		for bi, o := range n.Branches {
			if bi != ce.Outage && o.Status &&
				(o.From == br.From && o.To == br.To || o.From == br.To && o.To == br.From) {
				parallel = i
				break
			}
		}
	}
	if wantParallel != (parallel >= 0) {
		t.Fatalf("parallel-circuit outage found = %v, want %v", parallel >= 0, wantParallel)
	}
	for _, i := range []int{first, last, parallel} {
		if i < 0 {
			continue
		}
		want := oracleOutage(t, n, res2[i].Outage, frame2)
		for b := range want.Vm {
			dvm := math.Abs(res2[i].Estimate.State.Vm[b] - want.Vm[b])
			dva := math.Abs(res2[i].Estimate.State.Va[b] - want.Va[b])
			if dvm > 1e-6 || dva > 1e-6 {
				t.Fatalf("outage %d bus %d: warm pooled state off the oracle by Vm %g, Va %g",
					res2[i].Outage, b, dvm, dva)
			}
		}
	}
}

// sweepAllocs is what a warm sweep allocates beside its cases' results and
// violation lists: the result list, the scheduler's counter, watermark,
// error list and closures, and its worker goroutine.
const sweepAllocs = 12

// TestWarmSweepAllocations pins what a primed IEEE-118 pool's warm sweep
// allocates: per estimated case its wls.Result and the one block that
// Result's slices share, the violation lists, and sweepAllocs. The
// islanding verdicts, the default case list and the per-case stats are the
// pool's, derived once per topology or refilled. AllocsPerRun runs at
// GOMAXPROCS 1, so the sweep has one worker.
func TestWarmSweepAllocations(t *testing.T) {
	n := grid.Case118()
	st := solved(t, n)
	frames := make([][]meas.Measurement, 2)
	frames[0], frames[1] = poolFrames(t, n, meas.FullPlan().Build(n))
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(n, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, f := range frames {
		if _, _, err := pool.Screen(ctx, f, ratings, nil, ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// listAllocs counts the allocations of appending a violation list of the
	// results one by one, as the scan builds it.
	listAllocs := func(res []CaseEstimate) (allocs int) {
		for _, ce := range res {
			var v []Violation
			for range ce.Violations {
				if len(v) == cap(v) {
					allocs++
				}
				v = append(v, Violation{})
			}
		}
		return allocs
	}
	// The sweeps' results are kept and counted afterwards: counting
	// allocates too.
	results, stats := make([][]CaseEstimate, 0, 11), make([]SweepStats, 0, 11)
	allocs := testing.AllocsPerRun(10, func() {
		res, st, err := pool.Screen(ctx, frames[len(results)%2], ratings, nil, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results, stats = append(results, res), append(stats, st)
	})
	estimated, lists := 0, 0
	for k, st := range stats {
		if st.SkeletonBuilds != 0 || st.WarmStarts != st.Estimated {
			t.Fatalf("sweep %d is not warm: %+v", k, st)
		}
		estimated, lists = max(estimated, st.Estimated), max(lists, listAllocs(results[k]))
	}
	want := 2*estimated + lists + sweepAllocs
	t.Logf("%v allocations a sweep: %d estimated cases, %d for violation lists", allocs, estimated, lists)
	if allocs > float64(want) {
		t.Errorf("a warm IEEE-118 sweep allocated %v times, want at most %d", allocs, want)
	}
}

// TestPoolGainReuseDefault checks the pool's default options run the
// lagged tier: a quiescent re-screen skips gain refreshes.
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

// TestPoolWarmStartNotAliased: the pool's warm starts are its own copies.
// A caller that overwrites every returned Estimate.X between two sweeps
// gets a second sweep bitwise equal to that of an untouched twin pool.
func TestPoolWarmStartNotAliased(t *testing.T) {
	n := grid.Case14()
	plan := meas.FullPlan().Build(n)
	frame1, frame2 := poolFrames(t, n, plan)
	ctx := context.Background()
	popts := ParallelOptions{Workers: 2}
	var second [2][]CaseEstimate
	for k := range second {
		pool, err := NewPool(n, PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res1, _, err := pool.Screen(ctx, frame1, nil, nil, popts)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			for _, ce := range res1 {
				if ce.Estimate == nil {
					continue
				}
				for i := range ce.Estimate.X {
					ce.Estimate.X[i] = math.NaN()
				}
			}
		}
		var stats SweepStats
		if second[k], stats, err = pool.Screen(ctx, frame2, nil, nil, popts); err != nil {
			t.Fatalf("pool %d re-screen: %v", k, err)
		}
		if stats.WarmStarts != stats.Estimated {
			t.Fatalf("pool %d re-screen warm-started %d of %d cases", k, stats.WarmStarts, stats.Estimated)
		}
	}
	for i, ce := range second[0] {
		twin := second[1][i]
		if ce.Islanding {
			continue
		}
		if ce.Estimate.Iterations != twin.Estimate.Iterations {
			t.Fatalf("outage %d: %d Gauss–Newton iterations, untouched twin %d", ce.Outage, ce.Estimate.Iterations, twin.Estimate.Iterations)
		}
		for j, x := range ce.Estimate.X {
			if math.Float64bits(x) != math.Float64bits(twin.Estimate.X[j]) {
				t.Fatalf("outage %d x[%d] = %v, untouched twin %v", ce.Outage, j, x, twin.Estimate.X[j])
			}
		}
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
// checks every entry is dropped and rebuilt, and that the islanding verdicts
// and the default case list are the new topology's.
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

	// Take out of service a looped branch whose loop then has a bridge: the
	// topology signature changes, the case list shrinks, an outage that did
	// not island now does, and the telemetry layout follows the new grid.
	out, before := -1, islandingVerdicts(t, n)
	for bi, br := range n.Branches {
		if !br.Status || before[bi] {
			continue
		}
		n.Branches[bi].Status = false
		after := islandingVerdicts(t, n) // branch bi reads false in both
		n.Branches[bi].Status = true
		if !slices.Equal(after, before) {
			out = bi
			break
		}
	}
	if out < 0 {
		t.Fatal("no looped branch whose outage leaves a new bridge")
	}
	n.Branches[out].Status = false
	plan2 := meas.FullPlan().Build(n)
	st2 := solved(t, n)
	frame2, err := meas.Simulate(n, plan2, st2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res2, stats2, err := pool.Screen(ctx, frame2, nil, nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SkeletonBuilds != stats2.Estimated {
		t.Fatalf("topology change rebuilt %d of %d entries", stats2.SkeletonBuilds, stats2.Estimated)
	}
	after, k := islandingVerdicts(t, n), 0
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		if k >= len(res2) || res2[k].Outage != bi || res2[k].Islanding != after[bi] {
			t.Fatalf("case %d after the change: want outage %d islanding %v, got %+v", k, bi, after[bi], res2[min(k, len(res2)-1)].Result)
		}
		k++
	}
	if k != len(res2) {
		t.Fatalf("%d cases after the change, want %d", len(res2), k)
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
// contract: the reported error is always the
// first requested case's, with no partial results. Two inputs: IEEE-14 on
// an unobservable frame, where every case fails, and the ring fixture,
// where outages 0 and 1 fail through the rank check while outage 3
// estimates — so a pool's second sweep can find outage 3 already warm.
func TestPoolDeterministicError(t *testing.T) {
	n14 := grid.Case14()
	// Voltage magnitudes alone leave every angle unobservable.
	var plan []meas.Measurement
	for _, b := range n14.Buses {
		plan = append(plan, meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 0.004})
	}
	frame14, err := meas.Simulate(n14, plan, solved(t, n14), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	chk := newIslandChecker(n14)
	var cases14 []int
	for bi, br := range n14.Branches {
		if br.Status && !chk.islands(bi) {
			cases14 = append(cases14, bi)
		}
	}

	ring, ringFrame := ringUnobservableFixture(t)
	// Fixture sanity: the unmetered outage on its own must estimate fine.
	healthy, err := NewPool(ring, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := healthy.Screen(context.Background(), ringFrame, nil, []int{3}, ParallelOptions{}); err != nil {
		t.Fatalf("healthy outage failed: %v", err)
	}

	t.Run("ieee14-all-fail", func(t *testing.T) { expectFirstCaseError(t, n14, frame14, cases14) })
	t.Run("ring4-mixed", func(t *testing.T) { expectFirstCaseError(t, ring, ringFrame, []int{0, 1, 3}) })
}

// expectFirstCaseError sweeps a failing case list twice per pool, five
// pools, and requires cases[0]'s ErrUnobservable and no
// partial results every time.
func expectFirstCaseError(t *testing.T, n *grid.Network, frame []meas.Measurement, cases []int) {
	t.Helper()
	want := "outage " + strconv.Itoa(cases[0])
	for rep := 0; rep < 5; rep++ {
		pool, err := NewPool(n, PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for sweep := 0; sweep < 2; sweep++ {
			res, _, err := pool.Screen(context.Background(), frame, nil, cases, ParallelOptions{Workers: 4})
			if err == nil {
				t.Fatalf("rep=%d sweep=%d: unobservable sweep succeeded", rep, sweep)
			}
			if res != nil {
				t.Fatalf("rep=%d sweep=%d: partial results returned with error", rep, sweep)
			}
			if !errors.Is(err, wls.ErrUnobservable) {
				t.Fatalf("rep=%d sweep=%d: error %v does not wrap ErrUnobservable", rep, sweep, err)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("rep=%d sweep=%d: error %q is not the first case's (%s)", rep, sweep, err, want)
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

// TestPoolFlatStartBreakdownRecovers: outage 3 of the ring fixture has a
// singular gain at the flat start only. The pool must take damped steps on
// those refreshes, count them through SweepStats, and land within 1e-9 of a
// warm re-screen of the same case, which starts at that estimate, where the
// gain factors, and records no breakdown.
func TestPoolFlatStartBreakdownRecovers(t *testing.T) {
	n, frame := ringUnobservableFixture(t)
	pool, err := NewPool(n, PoolOptions{WLS: wls.Options{Tol: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	screen := func() (CaseEstimate, SweepStats) {
		t.Helper()
		res, stats, err := pool.Screen(context.Background(), frame, nil, []int{3}, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], stats
	}
	got, stats := screen()
	want, wstats := screen()
	if stats.PrecondFallbacks == 0 {
		t.Fatal("singular flat-start gain was not counted as a factorization breakdown")
	}
	if stats.PrecondFallbacks >= stats.GNIterations {
		t.Fatalf("%d breakdowns over %d Gauss–Newton iterations: the factor never recovered off the flat start",
			stats.PrecondFallbacks, stats.GNIterations)
	}
	if wstats.WarmStarts != 1 || wstats.PrecondFallbacks != 0 {
		t.Fatalf("warm re-screen: %d warm starts, %d factorization breakdowns (want 1 and 0)", wstats.WarmStarts, wstats.PrecondFallbacks)
	}
	for i, v := range want.Estimate.X {
		if d := math.Abs(got.Estimate.X[i] - v); d > 1e-9 {
			t.Fatalf("x[%d] = %v, warm re-screen %v", i, got.Estimate.X[i], v)
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
}
