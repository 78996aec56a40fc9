package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

func TestRunDistributedEndToEnd(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	// Solution quality vs truth.
	for i := range fx.truth.Vm {
		if d := math.Abs(res.State.Vm[i] - fx.truth.Vm[i]); d > 0.03 {
			t.Errorf("bus %d Vm error %g", fx.net.Buses[i].ID, d)
		}
		if d := math.Abs(res.State.Va[i] - fx.truth.Va[i]); d > 0.03 {
			t.Errorf("bus %d Va error %g", fx.net.Buses[i].ID, d)
		}
	}
	// Middleware actually used: pseudo packets crossed sites.
	if res.WireMessages == 0 || res.WireBytes == 0 {
		t.Error("no middleware traffic recorded")
	}
	// Mapping quality (paper: 1.035 before Step 1, 1.079 before Step 2).
	if res.Step1Mapping.Imbalance > 1.2 {
		t.Errorf("step-1 imbalance %.3f", res.Step1Mapping.Imbalance)
	}
	if res.Step2Mapping.Imbalance > 1.3 {
		t.Errorf("step-2 imbalance %.3f", res.Step2Mapping.Imbalance)
	}
	if res.Timings.Total <= 0 || res.Timings.Step1 <= 0 || res.Timings.Step2 <= 0 {
		t.Errorf("timings not populated: %+v", res.Timings)
	}
	for si, r := range res.Step1 {
		if r == nil || !r.Converged {
			t.Errorf("step-1 subsystem %d did not converge", si)
		}
	}
	for si, r := range res.Step2 {
		if r == nil || !r.Converged {
			t.Errorf("step-2 subsystem %d did not converge", si)
		}
	}
}

func TestRunDistributedMatchesInProcess(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	dist, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dist.State.Vm {
		if dist.State.Vm[i] != inproc.State.Vm[i] || dist.State.Va[i] != inproc.State.Va[i] {
			t.Fatalf("distributed and in-process solutions differ at bus %d", i)
		}
	}
}

func TestRunDistributedNoMappingBaseline(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	withMap, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	noMap, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3, NoMapping: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table II's point: the mapping balances bus counts better than the
	// naive contiguous split (35/46/37 vs 40/40/38).
	if withMap.Step1Mapping.Imbalance > noMap.Step1Mapping.Imbalance+1e-9 {
		t.Errorf("mapping imbalance %.3f worse than naive %.3f",
			withMap.Step1Mapping.Imbalance, noMap.Step1Mapping.Imbalance)
	}
	if len(noMap.Migrated) != 0 {
		t.Errorf("no-mapping run migrated %v", noMap.Migrated)
	}
	// Both must still produce good estimates.
	for i := range fx.truth.Vm {
		if d := math.Abs(noMap.State.Vm[i] - fx.truth.Vm[i]); d > 0.03 {
			t.Errorf("no-mapping Vm error %g at bus %d", d, i)
		}
	}
}

func TestRunDistributedShapedNetworkSlower(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	fast, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters:  3,
		Transport: cluster.NewShapedTransport(cluster.LinkProfile{Latency: 30 * time.Millisecond}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same answer over a slower network.
	for i := range fast.State.Vm {
		if fast.State.Vm[i] != slow.State.Vm[i] {
			t.Fatal("network profile changed the solution")
		}
	}
	if slow.WireMessages > 0 && slow.Timings.Exchange <= fast.Timings.Exchange {
		t.Errorf("shaped exchange %v not slower than loopback %v",
			slow.Timings.Exchange, fast.Timings.Exchange)
	}
}

func TestRunDistributedValidation(t *testing.T) {
	fx := newFixture(t, grid.Case14, 2, 0)
	if _, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 5}); err == nil {
		t.Fatal("clusters > subsystems accepted")
	}
}

func TestRunHierarchical(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunHierarchical(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatalf("RunHierarchical: %v", err)
	}
	if res.CoordinatorBytes == 0 {
		t.Error("coordinator received no data")
	}
	// Hierarchical (no Step 2) is less accurate at boundaries than DSE but
	// must still be close to the truth overall.
	bad := 0
	for i := range fx.truth.Vm {
		if math.Abs(res.State.Vm[i]-fx.truth.Vm[i]) > 0.05 {
			bad++
		}
	}
	if bad > 5 {
		t.Errorf("%d of 118 buses far from truth", bad)
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
	for si, r := range res.Local {
		if r == nil || !r.Converged {
			t.Errorf("local estimation %d did not converge", si)
		}
	}
}

// TestRunHierarchicalNoMapping: under NoMapping the hierarchical flow runs
// on the naive assignment, subsystem si on site si·p/m, as RunDistributed
// does, and where a subsystem solves does not change its estimate.
func TestRunHierarchicalNoMapping(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t, grid.Case118, 9, 1)
	mapped, err := RunHierarchical(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	var mappedSites [][]int // perSite is refilled in place by the next run
	for _, subs := range fx.dec.testbed.perSite {
		mappedSites = append(mappedSites, slices.Clone(subs))
	}
	naive, err := RunHierarchical(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3, NoMapping: true})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	if got := fx.dec.testbed.perSite; !reflect.DeepEqual(got, want) {
		t.Fatalf("NoMapping placed the subsystems %v, want %v", got, want)
	}
	if reflect.DeepEqual(mappedSites, want) {
		t.Fatalf("the mapped run placed the subsystems %v too: the test shows nothing", mappedSites)
	}
	for i := range mapped.State.Vm {
		if naive.State.Vm[i] != mapped.State.Vm[i] || naive.State.Va[i] != mapped.State.Va[i] {
			t.Fatalf("bus %d: %.17g/%.17g without mapping, %.17g/%.17g mapped", i, naive.State.Vm[i], naive.State.Va[i], mapped.State.Vm[i], mapped.State.Va[i])
		}
	}
}

func TestCentralizedEstimateBaseline(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := CentralizedEstimate(context.Background(), fx.net, fx.ms, wls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fx.truth.Vm {
		if d := math.Abs(res.State.Vm[i] - fx.truth.Vm[i]); d > 0.02 {
			t.Errorf("centralized Vm error %g at bus %d", d, i)
		}
	}
}

func TestDSEStep2ImprovesBoundaryOverStep1(t *testing.T) {
	// The point of Step 2: boundary estimates improve once neighbor
	// information arrives. Compare boundary-bus RMS error before/after.
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var se1, se2 float64
	var count int
	for si, s := range fx.dec.Subsystems {
		sp1, err := fx.dec.BuildStep1(si, fx.ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s.Boundary {
			id := fx.net.Buses[b].ID
			li := sp1.Net.MustIndex(id)
			d1 := res.Step1[si].State.Va[li] - fx.truth.Va[b]
			d2 := res.State.Va[b] - fx.truth.Va[b]
			se1 += d1 * d1
			se2 += d2 * d2
			count++
		}
	}
	rms1 := math.Sqrt(se1 / float64(count))
	rms2 := math.Sqrt(se2 / float64(count))
	if rms2 > rms1*1.5 {
		t.Errorf("step 2 degraded boundary angles: RMS %g -> %g", rms1, rms2)
	}
	t.Logf("boundary angle RMS: step1=%.6f step2=%.6f (%d boundary buses)", rms1, rms2, count)
}

// TestHierarchicalRefinementImprovesBoundary: the coordinator's
// boundary-system re-estimation (using tie-line telemetry no single
// balancing authority sees) must not degrade — and typically improves —
// the boundary accuracy of the concatenated solution.
func TestHierarchicalRefinementImprovesBoundary(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	plain, err := RunHierarchical(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RunHierarchical(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3, HierarchicalRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	rms := func(st powerflow.State) float64 {
		var se float64
		var count int
		for _, s := range fx.dec.Subsystems {
			for _, b := range s.Boundary {
				d := st.Va[b] - fx.truth.Va[b]
				se += d * d
				count++
			}
		}
		return math.Sqrt(se / float64(count))
	}
	p, r := rms(plain.State), rms(refined.State)
	t.Logf("boundary Va RMS: plain %.6f, refined %.6f", p, r)
	if r > 1.2*p {
		t.Errorf("refinement degraded boundary accuracy: %.6f -> %.6f", p, r)
	}
	// Non-boundary states untouched.
	for i := range plain.State.Vm {
		isBoundary := false
		for _, s := range fx.dec.Subsystems {
			for _, b := range s.Boundary {
				if b == i {
					isBoundary = true
				}
			}
		}
		if !isBoundary && plain.State.Vm[i] != refined.State.Vm[i] {
			t.Fatalf("interior bus %d modified by boundary refinement", i)
		}
	}
}

// TestHierarchicalRefineTieFlowsSwapped: a frame that swaps two tie-line
// flows of one kind, side and σ keeps its length and every position's kind,
// so only the branch tells the coordinator's kept boundary system that its
// layout changed. A frame of the unchanged layout refreshes every skeleton;
// the swapped one rebuilds the boundary system alone, and the kept
// decomposition's refined run on it equals a fresh decomposition's bit for
// bit.
func TestHierarchicalRefineTieFlowsSwapped(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	defer fx.dec.Close()
	tie := make(map[int]bool)
	for _, tl := range fx.dec.TieLines {
		tie[tl.Branch] = true
	}
	swapped := append([]meas.Measurement(nil), fx.ms...)
	first := -1
	for i, m := range swapped {
		if m.Kind != meas.Pflow || !tie[m.Branch] {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if f := swapped[first]; m.FromSide == f.FromSide && m.Sigma == f.Sigma && m.Branch != f.Branch {
			swapped[first], swapped[i] = m, f
			break
		}
	}
	if slices.Equal(swapped, fx.ms) {
		t.Fatal("no two tie-line Pflow entries of one side and σ to swap")
	}

	opts := DistributedOptions{Clusters: 3, HierarchicalRefine: true}
	if _, err := RunHierarchical(context.Background(), fx.dec, fx.ms, opts); err != nil {
		t.Fatal(err)
	}
	builds := fx.dec.session.SkeletonBuilds()
	if _, err := RunHierarchical(context.Background(), fx.dec, frameFor(t, fx, 1, 12), opts); err != nil {
		t.Fatal(err)
	}
	if b := fx.dec.session.SkeletonBuilds() - builds; b != 0 {
		t.Fatalf("a frame of the same layout built %d skeletons", b)
	}
	kept, err := RunHierarchical(context.Background(), fx.dec, swapped, opts)
	if err != nil {
		t.Fatal(err)
	}
	builds = fx.dec.session.SkeletonBuilds() - builds
	d, err := Decompose(fx.net, 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fresh, err := RunHierarchical(context.Background(), d, swapped, opts)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range fresh.State.Va {
		worst = max(worst, math.Abs(kept.State.Va[i]-fresh.State.Va[i]))
	}
	if worst != 0 {
		t.Fatalf("kept decomposition's angles up to %g rad from a fresh one's", worst)
	}
	requireSameRun(t, "swapped tie flows", kept.State, kept.Local, nil, &DSEResult{State: fresh.State, Step1: fresh.Local})
	if builds != 1 {
		t.Fatalf("the swapped frame built %d skeletons, want the boundary system alone", builds)
	}
}

// wireExpectation recomputes the wire accounting of a run of so many Step-2
// rounds from its own mappings and packets. A message is a site's data
// request or one bundle per ordered pair of sites with something to ship in
// a phase; the bytes are the payloads inside, whatever the bundling. A
// packet keeps its shape from round to round, so every round's exchange
// costs what the first does.
func wireExpectation(t *testing.T, fx *fixture, res *DistributedResult, rounds int) (messages, bytes int) {
	t.Helper()
	type sitePair struct{ from, to int }
	acquiring := make(map[int]bool)
	exchanging, migrating := make(map[sitePair]bool), make(map[sitePair]bool)
	rawBytes := make([]int, len(fx.dec.Subsystems))
	for si := range fx.dec.Subsystems {
		sp, err := fx.dec.BuildStep1(si, fx.ms)
		if err != nil {
			t.Fatal(err)
		}
		rawBytes[si] = 4 + 34*len(sp.Model.Meas)
		acquiring[res.Step1Mapping.Assign[si]] = true
		bytes += rawBytes[si]
		pkt := fx.dec.ExtractPseudo(si, sp, res.Step1[si].State)
		for _, nb := range fx.dec.Neighbors(si) {
			if from, to := res.Step2Mapping.Assign[si], res.Step2Mapping.Assign[nb]; from != to {
				exchanging[sitePair{from, to}] = true
				bytes += rounds * (12 + 24*len(pkt.States))
			}
		}
	}
	for _, si := range res.Migrated {
		migrating[sitePair{res.Step1Mapping.Assign[si], res.Step2Mapping.Assign[si]}] = true
		bytes += rawBytes[si]
	}
	return len(acquiring) + len(migrating) + rounds*len(exchanging), bytes
}

// TestWireAccountingPinned: with a fixed layout the wire accounting is an
// exact function of the run's own mappings and packets — nothing a codec
// may re-describe from one message to the next. IEEE-118 in 9 subsystems on
// 3 clusters under the default mapping moves 9 messages — 3 acquisitions
// and 6 exchange bundles, every site a neighbour of every other — for the
// 36 872 bytes its 35 per-packet messages used to carry.
func TestWireAccountingPinned(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantMessages, wantBytes := wireExpectation(t, fx, res, 1)
	if res.WireMessages != wantMessages || res.WireBytes != wantBytes {
		t.Errorf("wire accounting %d messages / %d bytes, want %d / %d", res.WireMessages, res.WireBytes, wantMessages, wantBytes)
	}
	if res.WireMessages != 9 || res.WireBytes != 36872 {
		t.Errorf("wire accounting %d messages / %d bytes, want the pinned 9 / 36872", res.WireMessages, res.WireBytes)
	}

	hier, err := RunHierarchical(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantCoord := 0
	for _, s := range fx.dec.Subsystems {
		wantCoord += 12 + 24*len(s.Buses) // one packet per subsystem, every own bus in it
	}
	if hier.CoordinatorBytes != wantCoord {
		t.Errorf("CoordinatorBytes = %d, want %d", hier.CoordinatorBytes, wantCoord)
	}
}

// TestDriversAgree: the testbed run and the in-process run are one sequence
// under two placements, so for any number of Step-2 rounds they return the
// same state bit for bit from the same Gauss–Newton iterations, and each
// extra round costs the testbed one more bundle per ordered pair of sites
// with a packet to exchange — 3 + 0 + rounds × 6 messages on IEEE-118 in 9
// subsystems on 3 clusters.
func TestDriversAgree(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mk          func() *grid.Network
		subs, sites int
		pinned      map[int]int // rounds -> WireMessages
	}{
		{"ieee30", grid.Case30, 3, 2, nil},
		{"ieee118", grid.Case118, 9, 3, map[int]int{1: 9, 2: 15, 4: 27}},
	} {
		fx := newFixture(t, tc.mk, tc.subs, 1)
		for _, rounds := range []int{1, 2, 4} {
			opts := DSEOptions{Rounds: rounds}
			inproc, err := RunDSE(context.Background(), fx.dec, fx.ms, opts)
			if err != nil {
				t.Fatalf("%s, %d rounds: RunDSE: %v", tc.name, rounds, err)
			}
			dist, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: tc.sites, DSE: opts})
			if err != nil {
				t.Fatalf("%s, %d rounds: RunDistributed: %v", tc.name, rounds, err)
			}
			for i := range inproc.State.Vm {
				if dist.State.Vm[i] != inproc.State.Vm[i] || dist.State.Va[i] != inproc.State.Va[i] {
					t.Fatalf("%s, %d rounds: the drivers differ at bus %d: %.17g/%.17g on the testbed, %.17g/%.17g in process", tc.name, rounds,
						i, dist.State.Vm[i], dist.State.Va[i], inproc.State.Vm[i], inproc.State.Va[i])
				}
			}
			// Step2 holds the last round's results on either side.
			if got, want := sumIterations(dist.Step1)+sumIterations(dist.Step2), sumIterations(inproc.Step1)+sumIterations(inproc.Step2); got != want {
				t.Errorf("%s, %d rounds: Step 1 and the last Step 2 took %d GN iterations on the testbed, %d in process", tc.name, rounds, got, want)
			}
			wantMessages, wantBytes := wireExpectation(t, fx, dist, rounds)
			if dist.WireMessages != wantMessages || dist.WireBytes != wantBytes {
				t.Errorf("%s, %d rounds: wire accounting %d messages / %d bytes, want %d / %d", tc.name, rounds,
					dist.WireMessages, dist.WireBytes, wantMessages, wantBytes)
			}
			if pinned, ok := tc.pinned[rounds]; ok && dist.WireMessages != pinned {
				t.Errorf("%s, %d rounds: %d middleware messages, pinned %d", tc.name, rounds, dist.WireMessages, pinned)
			}
		}
	}
}

// TestRunDistributedWarmStart: DSEOptions.WarmStart means on the testbed
// what it means to a Tracker — Step 1 starts from it, and the session keeps
// its reuse anchors and Step-2 carries — so the second of two frames run
// through RunDistributed with the first one's Step-1 solutions is the
// tracker's second frame bit for bit, in fewer Step-1 Gauss–Newton
// iterations than the same frame takes cold. (It used to keep the anchors
// and drop the start.)
func TestRunDistributedWarmStart(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	frames := [][]meas.Measurement{frameFor(t, fx, 1, 100), frameFor(t, fx, 1, 101)}
	ctx := context.Background()

	tr := NewTracker(fx.dec, DSEOptions{})
	var tracked *DSEResult
	for _, frame := range frames {
		var err error
		if tracked, err = tr.Step(ctx, frame); err != nil {
			t.Fatal(err)
		}
	}

	first, err := RunDistributed(ctx, fx.dec, frames[0], DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([][]float64, len(first.Step1))
	for si, r := range first.Step1 {
		warm[si] = append([]float64(nil), r.X...)
	}
	second, err := RunDistributed(ctx, fx.dec, frames[1], DistributedOptions{Clusters: 3, DSE: DSEOptions{WarmStart: warm}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tracked.State.Vm {
		if second.State.Vm[i] != tracked.State.Vm[i] || second.State.Va[i] != tracked.State.Va[i] {
			t.Fatalf("bus %d: warm-started testbed frame %.17g/%.17g, tracked frame %.17g/%.17g",
				i, second.State.Vm[i], second.State.Va[i], tracked.State.Vm[i], tracked.State.Va[i])
		}
	}
	cold, err := RunDistributed(ctx, fx.dec, frames[1], DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, was := sumIterations(second.Step1), sumIterations(cold.Step1); got >= was || got != tracked.Step1Stats.Iterations {
		t.Errorf("warm-started Step 1 took %d GN iterations, cold %d, the tracker's %d", got, was, tracked.Step1Stats.Iterations)
	}
}

// TestRunDistributedMigratesRawData: with a loose balance tolerance the
// Step-2 remapping of the IEEE-118 fixture moves subsystems 0 and 8 to other
// sites (the default run migrates nothing), so the redistribution phase
// really ships their raw data, one bundle per pair of sites, and the run
// still is the in-process computation.
func TestRunDistributedMigratesRawData(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters: 3, Map: MapOptions{ImbalanceTol: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Migrated, []int{0, 8}) {
		t.Fatalf("fixture migrates %v (%v -> %v), want [0 8]: find another mapping that migrates", res.Migrated, res.Step1Mapping.Assign, res.Step2Mapping.Assign)
	}
	wantMessages, wantBytes := wireExpectation(t, fx, res, 1)
	if res.WireMessages != wantMessages || res.WireBytes != wantBytes {
		t.Errorf("wire accounting %d messages / %d bytes, want %d / %d", res.WireMessages, res.WireBytes, wantMessages, wantBytes)
	}
	inproc, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.State.Vm {
		if math.Abs(res.State.Vm[i]-inproc.State.Vm[i]) > 1e-9 || math.Abs(res.State.Va[i]-inproc.State.Va[i]) > 1e-9 {
			t.Fatalf("migrating and in-process solutions differ at bus %d", i)
		}
	}
}

// TestShipEnvelopesMigrateBundles drives the redistribution path directly:
// hand-built EnvelopeMigrate bundles on a two-site testbed. Each pair of
// sites is one message, every envelope is delivered once, in bundle order,
// at the site that hosts its subsystem; an envelope for a subsystem the
// receiving site does not host, one of the wrong kind, and a site ending up
// with another number of envelopes than it is owed each fail the phase.
func TestShipEnvelopesMigrateBundles(t *testing.T) {
	sets := [][]meas.Measurement{
		{{Kind: meas.Vmag, Bus: 1, Value: 1.01, Sigma: 0.004}},
		{{Kind: meas.Pinj, Bus: 7, Value: -0.2, Sigma: 0.01}, {Kind: meas.Qflow, Branch: 3, FromSide: true, Value: 0.1, Sigma: 0.008}},
		nil,
		{{Kind: meas.Angle, Bus: 9, Value: 0.3, Sigma: 0.0005}},
	}
	assign := []int{0, 1, 1, 0} // the sites hosting subsystems 0..3 in Step 2
	migrate := func(si int) outEnvelope { return outEnvelope{FromSub: si, ToSub: si, Meas: sets[si]} }
	type delivery struct {
		site string
		sub  int
	}
	ship := func(t *testing.T, bundles [][][]outEnvelope, before func(tb *cluster.Testbed)) (got []delivery, messages, bytes int, err error) {
		t.Helper()
		tb, err := cluster.NewTestbed(2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if before != nil {
			before(tb)
		}
		var mu sync.Mutex
		err = shipEnvelopes(ctx, "redistribute", tb, bundles, func(payloadBytes int) {
			mu.Lock()
			messages, bytes = messages+1, bytes+payloadBytes
			mu.Unlock()
		}, func(site *cluster.Site, env Envelope) error {
			if err := checkRouting(env, EnvelopeMigrate, tb, assign, site); err != nil {
				return err
			}
			ms, err := decodeMeasurements(env.Payload)
			if err != nil || !sameMeasurements(ms, sets[env.ToSub]) || env.FromSub != env.ToSub {
				t.Errorf("subsystem %d arrived as %+v (%v)", env.ToSub, ms, err)
			}
			mu.Lock()
			got = append(got, delivery{site.Name, env.ToSub})
			mu.Unlock()
			return nil
		})
		return got, messages, bytes, err
	}

	bundles := clearBundles(nil, 2)
	bundles[0][1] = []outEnvelope{migrate(1), migrate(2)}
	bundles[1][0] = []outEnvelope{migrate(3)}
	got, messages, bytes, err := ship(t, bundles, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(a, b int) bool { return got[a].sub < got[b].sub })
	if want := []delivery{{"Catamount", 1}, {"Catamount", 2}, {"Nwiceb", 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries %v, want %v", got, want)
	}
	if wantBytes := (4 + 34*2) + 4 + (4 + 34*1); messages != 2 || bytes != wantBytes {
		t.Errorf("accounting %d messages / %d bytes, want 2 / %d", messages, bytes, wantBytes)
	}

	if _, messages, _, err := ship(t, clearBundles(nil, 2), nil); err != nil || messages != 0 {
		t.Errorf("a phase with nothing to ship: %d messages, %v", messages, err)
	}

	wrongSite := clearBundles(nil, 2)
	wrongSite[0][1] = []outEnvelope{migrate(1), migrate(0)} // subsystem 0 stays on site 0
	if _, _, _, err := ship(t, wrongSite, nil); err == nil || !strings.Contains(err.Error(), "subsystem 0, which it does not host") {
		t.Errorf("envelope for a subsystem hosted elsewhere: err = %v", err)
	}

	wrongKind := clearBundles(nil, 2)
	wrongKind[0][1] = []outEnvelope{{FromSub: 0, ToSub: 1, Packet: &PseudoPacket{FromSub: 0}}}
	if _, _, _, err := ship(t, wrongKind, nil); err == nil || !strings.Contains(err.Error(), "envelope kind") {
		t.Errorf("pseudo envelope in the redistribution: err = %v", err)
	}

	// A stray bundle already in the inbox stands in for a peer that ships
	// fewer envelopes than it owes: the count is checked, not assumed.
	stray, err := encodeBundle([]outEnvelope{migrate(2)})
	if err != nil {
		t.Fatal(err)
	}
	owed := clearBundles(nil, 2)
	owed[0][1] = []outEnvelope{migrate(1), migrate(2)}
	_, _, _, err = ship(t, owed, func(tb *cluster.Testbed) {
		if err := tb.Sites[0].Client().Send(context.Background(), "Catamount", stray); err != nil {
			t.Fatal(err)
		}
		// The phase must find the stray first: wait until it is in the inbox.
		for deadline := time.Now().Add(5 * time.Second); len(tb.Sites[1].Client().Messages()) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("stray bundle never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "took delivery of 1 envelopes, is owed 2") {
		t.Errorf("short bundle: err = %v", err)
	}
}
