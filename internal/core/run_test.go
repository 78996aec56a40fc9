package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
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
		if math.Abs(dist.State.Vm[i]-inproc.State.Vm[i]) > 1e-9 ||
			math.Abs(dist.State.Va[i]-inproc.State.Va[i]) > 1e-9 {
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

// TestWireAccountingPinned: with a fixed layout the wire accounting is an
// exact function of the run's own mappings and packets — nothing a codec
// may re-describe from one message to the next. IEEE-118 in 9 subsystems
// on 3 clusters under the default mapping moves 35 messages: 9
// acquisitions and 26 pseudo-measurement envelopes.
func TestWireAccountingPinned(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantMessages, wantBytes := 0, 0
	rawBytes := make([]int, len(fx.dec.Subsystems))
	for si := range fx.dec.Subsystems {
		sp, err := fx.dec.BuildStep1(si, fx.ms)
		if err != nil {
			t.Fatal(err)
		}
		rawBytes[si] = 4 + 34*len(sp.Model.Meas)
		wantMessages++ // acquisition
		wantBytes += rawBytes[si]
		pkt := fx.dec.ExtractPseudo(si, sp, res.Step1[si].State)
		for _, nb := range fx.dec.Neighbors(si) {
			if res.Step2Mapping.Assign[si] != res.Step2Mapping.Assign[nb] {
				wantMessages++
				wantBytes += 12 + 24*len(pkt.States)
			}
		}
	}
	for _, si := range res.Migrated {
		wantMessages++
		wantBytes += rawBytes[si]
	}
	if res.WireMessages != wantMessages || res.WireBytes != wantBytes {
		t.Errorf("wire accounting %d messages / %d bytes, want %d / %d", res.WireMessages, res.WireBytes, wantMessages, wantBytes)
	}
	if res.WireMessages != 35 {
		t.Errorf("WireMessages = %d, want the pinned 35", res.WireMessages)
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
