package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// fixture bundles everything a DSE test needs.
type fixture struct {
	net   *grid.Network
	truth powerflow.State
	dec   *Decomposition
	ms    []meas.Measurement
}

func newFixture(t *testing.T, mk func() *grid.Network, m int, noise float64) *fixture {
	t.Helper()
	n := mk()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	dec, err := Decompose(n, m, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := meas.Simulate(n, plan, pf.State, noise, 11)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return &fixture{net: n, truth: pf.State, dec: dec, ms: ms}
}

func TestDecompose118Into9(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	d := fx.dec
	if len(d.Subsystems) != 9 {
		t.Fatalf("%d subsystems", len(d.Subsystems))
	}
	total := 0
	for _, s := range d.Subsystems {
		total += len(s.Buses)
		// The paper's decomposition yields ~13 buses per subsystem; ours
		// should be in the same range.
		if len(s.Buses) < 5 || len(s.Buses) > 25 {
			t.Errorf("subsystem %d has %d buses, outside [5,25]", s.Index, len(s.Buses))
		}
		if len(s.Boundary) == 0 {
			t.Errorf("subsystem %d has no boundary buses", s.Index)
		}
	}
	if total != 118 {
		t.Fatalf("bus total %d", total)
	}
	if len(d.TieLines) == 0 {
		t.Fatal("no tie lines")
	}
	// Non-overlap: every bus owned exactly once.
	seen := make(map[int]int)
	for si, s := range d.Subsystems {
		for _, b := range s.Buses {
			if prev, dup := seen[b]; dup {
				t.Fatalf("bus %d in subsystems %d and %d", b, prev, si)
			}
			seen[b] = si
		}
	}
	// Owner consistency.
	for b, si := range d.Owner {
		if seen[b] != si {
			t.Fatalf("owner mismatch at bus %d", b)
		}
	}
}

func TestDecomposeSubsystemsConnected(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	adj := fx.net.Adjacency()
	for si := range fx.dec.Subsystems {
		comps := inducedComponents(adj, fx.dec.Owner, si)
		if len(comps) != 1 {
			t.Errorf("subsystem %d induces %d components", si, len(comps))
		}
	}
}

func TestDecomposeSensitivityRadius(t *testing.T) {
	n := grid.Case118()
	d1, err := Decompose(n, 9, DecomposeOptions{Seed: 1, SensitivityRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decompose(n, 9, DecomposeOptions{Seed: 1, SensitivityRadius: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := 0, 0
	for i := range d1.Subsystems {
		s1 += len(d1.Subsystems[i].Sensitive)
		s2 += len(d2.Subsystems[i].Sensitive)
	}
	if s2 < s1 {
		t.Fatalf("radius 2 found fewer sensitive buses (%d) than radius 1 (%d)", s2, s1)
	}
	// Sensitive and boundary sets are disjoint.
	for _, s := range d2.Subsystems {
		b := intSet(s.Boundary)
		for _, v := range s.Sensitive {
			if b[v] {
				t.Fatalf("bus %d both boundary and sensitive", v)
			}
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	n := grid.Case14()
	if _, err := Decompose(n, 0, DecomposeOptions{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Decompose(n, 15, DecomposeOptions{}); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := DecomposeWithParts(n, 2, []int{0, 1}, 1); err == nil {
		t.Error("short parts accepted")
	}
	bad := make([]int, 14)
	bad[3] = 9
	if _, err := DecomposeWithParts(n, 2, bad, 1); err == nil {
		t.Error("invalid part id accepted")
	}
}

func TestNeighborsAndDiameter(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	d := fx.dec
	for si := range d.Subsystems {
		nbrs := d.Neighbors(si)
		if len(nbrs) == 0 {
			t.Errorf("subsystem %d has no neighbors", si)
		}
		for _, nb := range nbrs {
			if nb == si {
				t.Errorf("subsystem %d neighbors itself", si)
			}
			// Symmetry.
			back := d.Neighbors(nb)
			found := false
			for _, x := range back {
				if x == si {
					found = true
				}
			}
			if !found {
				t.Errorf("neighbor relation not symmetric: %d -> %d", si, nb)
			}
		}
	}
	diam := d.Diameter()
	if diam < 1 || diam > 8 {
		t.Errorf("diameter %d implausible for 9 subsystems", diam)
	}
}

// mapNeighbors is Neighbors as it was computed on every call before the
// lists were cached: a set over the tie lines, sorted.
func mapNeighbors(d *Decomposition, si int) []int {
	set := make(map[int]bool)
	for _, tl := range d.TieLines {
		if tl.SubA == si {
			set[tl.SubB] = true
		}
		if tl.SubB == si {
			set[tl.SubA] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestNeighborsCachedMatchesTieLineScan: the lists built once with the tie
// lines are the per-call map version's, on the partitioner's split of
// IEEE-118 and the area split of a 12-area SynthWECC; concurrent readers
// under inProcess.forEach share them (run with -race), and a call allocates
// nothing.
func TestNeighborsCachedMatchesTieLineScan(t *testing.T) {
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	weccDec, err := DecomposeWithParts(wecc, 12, grid.AreaParts(wecc), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Decomposition{newFixture(t, grid.Case118, 9, 0).dec, weccDec} {
		m := len(d.Subsystems)
		err := inProcess{d: d}.forEach(context.Background(), "neighbors", func(_ context.Context, si int) error {
			for nb := 0; nb < m; nb++ { // every goroutine reads every list
				if got, want := d.Neighbors(nb), mapNeighbors(d, nb); !slices.Equal(got, want) {
					t.Errorf("%s: Neighbors(%d) = %v, tie-line scan %v", d.Net.Name, nb, got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if allocs := testing.AllocsPerRun(100, func() {
			for si := 0; si < m; si++ {
				n += len(d.Neighbors(si))
			}
		}); allocs != 0 {
			t.Errorf("%s: Neighbors allocates %v times per sweep, want 0", d.Net.Name, allocs)
		}
		if n == 0 {
			t.Errorf("%s: no subsystem has a neighbor", d.Net.Name)
		}
	}
}

func TestDecompositionGraphMatchesPaperShape(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	g := fx.dec.Graph()
	if g.N() != 9 {
		t.Fatalf("graph has %d vertices", g.N())
	}
	if g.TotalVertexWeight() != 118 {
		t.Fatalf("total vertex weight %v, want 118", g.TotalVertexWeight())
	}
	// Edge weights are the sums of endpoint bus counts (Table I style).
	for _, e := range g.Edges() {
		u, v, w := int(e[0]), int(e[1]), e[2]
		want := float64(len(fx.dec.Subsystems[u].Buses) + len(fx.dec.Subsystems[v].Buses))
		if w != want {
			t.Fatalf("edge (%d,%d) weight %v, want %v", u, v, w, want)
		}
	}
}

func TestStep1LocalEstimatesAccurate(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0) // noiseless
	for si := range fx.dec.Subsystems {
		sp, err := fx.dec.BuildStep1(si, fx.ms)
		if err != nil {
			t.Fatalf("subsystem %d: %v", si, err)
		}
		res, err := wls.Estimate(sp.Model, wls.Options{})
		if err != nil {
			t.Fatalf("subsystem %d estimate: %v", si, err)
		}
		for _, id := range sp.OwnBuses {
			li := sp.Net.MustIndex(id)
			gi := fx.net.MustIndex(id)
			if d := math.Abs(res.State.Vm[li] - fx.truth.Vm[gi]); d > 1e-5 {
				t.Errorf("subsystem %d bus %d Vm error %g", si, id, d)
			}
			if d := math.Abs(res.State.Va[li] - fx.truth.Va[gi]); d > 1e-5 {
				t.Errorf("subsystem %d bus %d Va error %g", si, id, d)
			}
		}
	}
}

func TestRunDSENoiselessMatchesTruth(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	res, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	for i := range fx.truth.Vm {
		if d := math.Abs(res.State.Vm[i] - fx.truth.Vm[i]); d > 1e-4 {
			t.Errorf("bus %d Vm error %g", fx.net.Buses[i].ID, d)
		}
		if d := math.Abs(res.State.Va[i] - fx.truth.Va[i]); d > 1e-4 {
			t.Errorf("bus %d Va error %g", fx.net.Buses[i].ID, d)
		}
	}
	if res.ExchangeBytes <= 0 || res.ExchangeMessages <= 0 {
		t.Error("no exchange accounted")
	}
	if res.Step1Stats.Iterations == 0 || res.Step2Stats.Iterations == 0 {
		t.Error("missing iteration stats")
	}
}

func TestRunDSEWithNoiseCloseToCentralized(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	dse, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	// Centralized reference on the same measurements.
	ref := fx.net.SlackIndex()
	mod, err := meas.NewModel(fx.net, fx.ms, ref, fx.truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	cen, err := wls.Estimate(mod, wls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var worstVm, worstVa float64
	for i := range fx.truth.Vm {
		if d := math.Abs(dse.State.Vm[i] - cen.State.Vm[i]); d > worstVm {
			worstVm = d
		}
		if d := math.Abs(dse.State.Va[i] - cen.State.Va[i]); d > worstVa {
			worstVa = d
		}
	}
	// The distributed solution should track the centralized one to within
	// a few meter sigmas.
	if worstVm > 0.02 {
		t.Errorf("max Vm deviation from centralized %g", worstVm)
	}
	if worstVa > 0.02 {
		t.Errorf("max Va deviation from centralized %g rad", worstVa)
	}
	// And both should be close to the truth.
	for i := range fx.truth.Vm {
		if d := math.Abs(dse.State.Vm[i] - fx.truth.Vm[i]); d > 0.03 {
			t.Errorf("bus %d Vm error vs truth %g", fx.net.Buses[i].ID, d)
		}
	}
}

// TestRunDSESequentialMatchesConcurrent: RunDSE on the phase runner equals,
// bit for bit, the same run with every phase's subsystems in index order on
// the calling goroutine.
func TestRunDSESequentialMatchesConcurrent(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	a, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(fx.dec, DSEOptions{}).runDSE(context.Background(), inOrder{inProcess{fx.dec}}, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.State.Vm {
		if a.State.Vm[i] != b.State.Vm[i] || a.State.Va[i] != b.State.Va[i] {
			t.Fatalf("sequential and concurrent runs differ at bus %d", i)
		}
	}
}

func TestRunDSEMultipleRounds(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	r1, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: fx.dec.Diameter()})
	if err != nil {
		t.Fatal(err)
	}
	if rd.ExchangeMessages <= r1.ExchangeMessages {
		t.Error("more rounds should exchange more messages")
	}
	// The exchange accounting is arithmetic on the packets, which keep their
	// shape from round to round: every neighbour of a subsystem receives the
	// 12 + 24·states bytes of its packet.
	var perRoundBytes, perRoundMessages int
	for si := range fx.dec.Subsystems {
		sp, err := fx.dec.BuildStep1(si, fx.ms)
		if err != nil {
			t.Fatal(err)
		}
		pkt := fx.dec.ExtractPseudo(si, sp, r1.Step1[si].State)
		payload, err := EncodePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != 12+24*len(pkt.States) {
			t.Fatalf("subsystem %d: packet of %d states encodes to %d bytes", si, len(pkt.States), len(payload))
		}
		perRoundBytes += len(payload) * len(fx.dec.Neighbors(si))
		perRoundMessages += len(fx.dec.Neighbors(si))
	}
	if perRoundBytes != 9456 {
		t.Errorf("one round exchanges %d bytes on this fixture, pinned 9456", perRoundBytes)
	}
	for rounds, res := range map[int]*DSEResult{1: r1, fx.dec.Diameter(): rd} {
		if res.ExchangeBytes != rounds*perRoundBytes || res.ExchangeMessages != rounds*perRoundMessages {
			t.Errorf("%d rounds: %d exchange bytes in %d messages, want %d in %d", rounds,
				res.ExchangeBytes, res.ExchangeMessages, rounds*perRoundBytes, rounds*perRoundMessages)
		}
	}
	// More rounds must not blow up the solution.
	for i := range fx.truth.Vm {
		if d := math.Abs(rd.State.Vm[i] - fx.truth.Vm[i]); d > 0.03 {
			t.Fatalf("multi-round Vm error %g at bus %d", d, i)
		}
	}
}

// TestRunDSEStep2StatsAccumulateRounds is the regression test for the
// multi-round stats undercount: res.Step2 is overwritten every round, so
// summing it once at the end counted only the final round's Gauss–Newton
// iterations while Duration spanned all rounds. The stats must accumulate
// per round: the 3-round run's Step 2 counts at least one Gauss–Newton
// iteration per subsystem and extra round more than the 1-round run's (its
// rounds take 6 + 6 + 6 here, the one round 9, which solves to Tol where
// the first two rounds stop at the intermediate tolerance).
func TestRunDSEStep2StatsAccumulateRounds(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	r1, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := RunDSE(context.Background(), fx.dec, fx.ms, DSEOptions{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := len(fx.dec.Subsystems)
	if min := r1.Step2Stats.Iterations + 2*m; r3.Step2Stats.Iterations < min {
		t.Fatalf("3-round Step2Stats.Iterations = %d, want ≥ %d (1-round count %d + 1 GN iteration × %d subsystems × 2 extra rounds)",
			r3.Step2Stats.Iterations, min, r1.Step2Stats.Iterations, m)
	}
	// Every iteration refreshes the gain or lags it, so the refresh and skip
	// counts must cover the same rounds as the iterations.
	for rounds, st := range map[int]StepStats{1: r1.Step2Stats, 3: r3.Step2Stats} {
		if st.GainRefreshes+st.GainSkips != st.Iterations {
			t.Errorf("%d rounds: %d gain refreshes + %d lagged steps over %d iterations", rounds, st.GainRefreshes, st.GainSkips, st.Iterations)
		}
	}
}

func TestRunDSERequiresPMUAtRefs(t *testing.T) {
	n := grid.Case14()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompose(n, 2, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := meas.Simulate(n, meas.FullPlan().Build(n), pf.State, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDSE(context.Background(), dec, ms, DSEOptions{}); err == nil {
		t.Fatal("DSE without PMU angle references should fail")
	}
}

func TestPMUPlanForSkipsCovered(t *testing.T) {
	n := grid.Case14()
	dec, err := Decompose(n, 2, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	extra := PMUPlanFor(dec, nil, 0.001)
	if len(extra) != 2*len(dec.Subsystems) {
		t.Fatalf("%d extra measurements, want %d", len(extra), 2*len(dec.Subsystems))
	}
	again := PMUPlanFor(dec, extra, 0.001)
	if len(again) != 0 {
		t.Fatalf("already-covered refs got %d more measurements", len(again))
	}
}

func TestPacketCodecRoundTrip(t *testing.T) {
	p := PseudoPacket{FromSub: 3, States: []BusState{{BusID: 7, Vm: 1.02, Va: -0.1}}}
	b, err := EncodePacket(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.FromSub != 3 || len(q.States) != 1 || q.States[0] != p.States[0] {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	if _, err := DecodePacket([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestMapStep1AndStep2(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	m1, err := fx.dec.MapStep1(3, MapOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Assign) != 9 {
		t.Fatalf("assign length %d", len(m1.Assign))
	}
	if m1.Imbalance > 1.2 {
		t.Errorf("step-1 imbalance %.3f (paper: 1.035)", m1.Imbalance)
	}
	m2, err := fx.dec.MapStep2(3, m1, MapOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Imbalance > 1.3 {
		t.Errorf("step-2 imbalance %.3f (paper: 1.079)", m2.Imbalance)
	}
	// Migration count should be small (paper: 2 subsystems of 9 move).
	if n := len(Migrations(m1, m2)); n > 5 {
		t.Errorf("%d of 9 subsystems migrated", n)
	}
	if _, err := fx.dec.MapStep2(3, nil, MapOptions{}); err == nil {
		t.Error("MapStep2 without previous mapping accepted")
	}
}

// TestRunDSEWithRTUPlan: DSE still works at realistic (reduced) SCADA
// redundancy, not just the full metering configuration.
func TestRunDSEWithRTUPlan(t *testing.T) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompose(n, 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// RTU plan plus guaranteed voltage coverage and the DSE PMUs: partial
	// flow/injection coverage with ~2.5x redundancy.
	plan := meas.RTUPlan(3).Build(n)
	for _, b := range n.Buses {
		plan = append(plan, meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: 0.004})
	}
	plan = append(plan, PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := meas.Simulate(n, plan, pf.State, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Reduced redundancy leaves some subsystem unobservable for this seed;
	// plain DSE must say so rather than silently guessing...
	if _, err := RunDSE(context.Background(), dec, ms, DSEOptions{}); err == nil {
		t.Log("all subsystems observable at this seed (plain run succeeded)")
	}
	// ...and with observability restoration the run completes.
	res, err := RunDSE(context.Background(), dec, ms, DSEOptions{RestoreObservability: true})
	if err != nil {
		t.Fatalf("RunDSE at RTU redundancy with restoration: %v", err)
	}
	var worst float64
	for i := range pf.State.Vm {
		if d := math.Abs(res.State.Vm[i] - pf.State.Vm[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Errorf("max Vm error %g at RTU redundancy", worst)
	}
	t.Logf("RTU-plan DSE: %d measurements, max Vm error %.5f", len(ms), worst)
}

func intSet(xs []int) map[int]bool {
	s := make(map[int]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}
