package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

func maxStateDiff(a, b powerflow.State) float64 {
	var worst float64
	for i := range a.Vm {
		worst = math.Max(worst, math.Abs(a.Vm[i]-b.Vm[i]))
		worst = math.Max(worst, math.Abs(a.Va[i]-b.Va[i]))
	}
	return worst
}

func sumIterations(rs []*wls.Result) int {
	n := 0
	for _, r := range rs {
		n += r.Iterations
	}
	return n
}

// TestStep2SeedCutsIterations: a standalone run's Step 2 starts from its
// own Step 1 and the incoming pseudo-measurements, not from the flat
// profile, so on IEEE-118 in 9 subsystems it takes fewer Gauss–Newton
// iterations than under noStep2WarmStart, for the same estimate — in process
// and on the testbed alike, which stay one computation.
func TestStep2SeedCutsIterations(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	ctx := context.Background()
	seeded, err := RunDSE(ctx, fx.dec, fx.ms, DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := RunDSE(ctx, fx.dec, fx.ms, DSEOptions{noStep2WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Step2Stats.Iterations >= flat.Step2Stats.Iterations {
		t.Errorf("RunDSE: seeded Step 2 took %d GN iterations, flat %d", seeded.Step2Stats.Iterations, flat.Step2Stats.Iterations)
	}
	if d := maxStateDiff(seeded.State, flat.State); d > 1e-6 {
		t.Errorf("RunDSE: seeded and flat estimates differ by %g", d)
	}

	distSeeded, err := RunDistributed(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	distFlat, err := RunDistributed(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3, DSE: DSEOptions{noStep2WarmStart: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got, was := sumIterations(distSeeded.Step2), sumIterations(distFlat.Step2); got >= was {
		t.Errorf("RunDistributed: seeded Step 2 took %d GN iterations, flat %d", got, was)
	}
	if d := maxStateDiff(distSeeded.State, distFlat.State); d > 1e-6 {
		t.Errorf("RunDistributed: seeded and flat estimates differ by %g", d)
	}
	if got, want := sumIterations(distSeeded.Step2), seeded.Step2Stats.Iterations; got != want {
		t.Errorf("RunDistributed's Step 2 took %d GN iterations, RunDSE's %d: the drivers no longer start alike", got, want)
	}
	if d := math.Max(maxStateDiff(distFlat.State, flat.State), maxStateDiff(distSeeded.State, seeded.State)); d > 1e-9 {
		t.Errorf("the testbed and the in-process run differ by %g from the same start", d)
	}
	t.Logf("step-2 GN iterations: seeded %d, flat %d", seeded.Step2Stats.Iterations, flat.Step2Stats.Iterations)
}

// TestCarriedStep2StartUnchanged: once a session carries a Step-2 solution,
// that is the start, bit for bit as before the seed existed. The first frame
// here is solved from flat (noStep2WarmStart), which is what every first
// frame was, so the second one — warm-started Step 1, carried Step 2 — must
// reproduce the recorded states: all 236 of them through a hash, two in
// full. (A default tracker's first frame is seeded now, lands within the
// solver tolerance of the flat-started one, and its second frame differs
// from the recorded one in the tenth digit.) The record dates from when
// Step 1 began to stop at the intermediate tolerance
// (Session.intermediateWLS); the two states recorded before, when every
// solve ran to Tol, stay within 1e-5 of the frame's.
func TestCarriedStep2StartUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; where the compiler fuses multiply-adds the last bits differ")
	}
	fx := newFixture(t, grid.Case118, 9, 1)
	tr := NewTracker(fx.dec, DSEOptions{noStep2WarmStart: true})
	if _, err := tr.Process(frameFor(t, fx, 1, 100)); err != nil {
		t.Fatal(err)
	}
	tr.Opts.noStep2WarmStart = false
	res, err := tr.Process(frameFor(t, fx, 1, 101))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := range res.State.Vm {
		fmt.Fprintf(h, "%x %x ", math.Float64bits(res.State.Vm[i]), math.Float64bits(res.State.Va[i]))
	}
	const wantHash, wantVa10, wantVm50 = 0xef1aef8bd262d830, -0.29776913714755948, 0.96669692217123759
	if h.Sum64() != wantHash || res.State.Va[10] != wantVa10 || res.State.Vm[50] != wantVm50 {
		t.Errorf("second tracked frame: hash %x, Va[10] %.17g, Vm[50] %.17g; recorded %x, %.17g, %.17g",
			h.Sum64(), res.State.Va[10], res.State.Vm[50], uint64(wantHash), wantVa10, wantVm50)
	}
	const fullTolVa10, fullTolVm50 = -0.29776913723934506, 0.96669686828832757
	if d := math.Max(math.Abs(res.State.Va[10]-fullTolVa10), math.Abs(res.State.Vm[50]-fullTolVm50)); d > 1e-5 {
		t.Errorf("second tracked frame is %g from the states recorded with every solve at Tol", d)
	}
	if res.Step1Stats.Iterations != 18 || res.Step2Stats.Iterations != 28 {
		t.Errorf("second tracked frame took %d + %d GN iterations, recorded 18 + 28", res.Step1Stats.Iterations, res.Step2Stats.Iterations)
	}
}

// sessionStep1 solves every subsystem's Step 1 on a private session and
// returns the results with the packets they yield.
func sessionStep1(t *testing.T, sess *Session, frame []meas.Measurement) ([]*wls.Result, []PseudoPacket) {
	t.Helper()
	m := len(sess.d.Subsystems)
	results, packets := make([]*wls.Result, m), make([]PseudoPacket, m)
	for si := 0; si < m; si++ {
		sp, eng, err := sess.step1(si, frame)
		if err != nil {
			t.Fatal(err)
		}
		if results[si], err = eng.Estimate(wls.Options{}); err != nil {
			t.Fatalf("step 1 subsystem %d: %v", si, err)
		}
		packets[si] = sess.d.ExtractPseudo(si, sp, results[si].State)
	}
	return results, packets
}

func incomingFor(d *Decomposition, si int, packets []PseudoPacket) []PseudoPacket {
	var in []PseudoPacket
	for _, nb := range d.Neighbors(si) {
		in = append(in, packets[nb])
	}
	return in
}

// TestStep2SeedMatchesBusesByID: the seed puts every bus of a Step-2
// network at what the run knows of that bus — its owner's Step-1 estimate,
// be the owner this subsystem or a neighbour — whatever position the bus
// has in the Step-1 network, the Step-2 network and the packets. Three
// 10-bus IEEE-30 subsystems and two 118-bus synthetic areas lay their
// external buses out differently.
func TestStep2SeedMatchesBusesByID(t *testing.T) {
	for name, fx := range map[string]*fixture{
		"ieee30/3":    newFixture(t, grid.Case30, 3, 1),
		"synthwecc/2": weccFixture(t, 2),
	} {
		sess := NewSession(fx.dec, DSEOptions{})
		results, packets := sessionStep1(t, sess, fx.ms)
		// What Step 1 says of each bus, by external ID, from the subsystem
		// that owns it.
		type vmva struct{ vm, va float64 }
		known := make(map[int]vmva)
		for si, r := range results {
			sp := sess.subs[si].step1
			for _, id := range sp.OwnBuses {
				li := sp.Net.MustIndex(id)
				known[id] = vmva{r.State.Vm[li], r.State.Va[li]}
			}
		}
		external := 0
		for si := range fx.dec.Subsystems {
			sp, _, err := sess.step2(si, fx.ms, incomingFor(fx.dec, si, packets), true)
			if err != nil {
				t.Fatal(err)
			}
			seed := sp.Model.VecToState(sess.step2Start(si, results[si].State))
			for li, bus := range sp.Net.Buses {
				want := known[bus.ID]
				if li == sp.Model.RefBus() {
					want.va = sp.RefAngle() // pinned, not a state
				}
				if seed.Vm[li] != want.vm || seed.Va[li] != want.va {
					t.Errorf("%s subsystem %d bus %d: seed (%g, %g), Step 1 has (%g, %g)", name, si, bus.ID, seed.Vm[li], seed.Va[li], want.vm, want.va)
				}
			}
			external += sp.Net.N() - len(sp.OwnBuses)
		}
		if external == 0 {
			t.Errorf("%s: no Step-2 network has an external bus", name)
		}
	}
}

// TestStep2SeedRejectedWhenStep1IsSpoiled: the seed is a warm start like any
// other, kept only while it explains the Step-2 measurements markedly better
// than the flat profile. One gross bad datum — a subsystem's reference PMU
// reading a radian off — spoils that subsystem's Step-1 solution; started
// from it against the clean frame, Step 2 must do exactly what it does from
// flat: same iterates, same count, converged.
func TestStep2SeedRejectedWhenStep1IsSpoiled(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	const victim = 4
	refID := fx.net.Buses[fx.dec.Subsystems[victim].RefBus].ID
	spoiled := append([]meas.Measurement(nil), fx.ms...)
	spoiled[refAngleSource(spoiled, refID)].Value += 1

	sess := NewSession(fx.dec, DSEOptions{})
	_, packets := sessionStep1(t, sess, fx.ms)
	_, eng1, err := sess.step1(victim, spoiled)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := eng1.Estimate(wls.Options{})
	if err != nil {
		t.Fatalf("step 1 on the spoiled frame: %v", err)
	}
	_, eng2, err := sess.step2(victim, fx.ms, incomingFor(fx.dec, victim, packets), true)
	if err != nil {
		t.Fatal(err)
	}
	fromFlat, err := eng2.Estimate(sess.step2Options(victim, DSEOptions{noStep2WarmStart: true}, bad.State))
	if err != nil {
		t.Fatal(err)
	}
	fromSeed, err := eng2.Estimate(sess.step2Options(victim, DSEOptions{}, bad.State))
	if err != nil {
		t.Fatalf("step 2 from the spoiled seed: %v", err)
	}
	if !fromSeed.Converged || fromSeed.Iterations != fromFlat.Iterations {
		t.Errorf("from the spoiled seed: converged %v in %d iterations; from flat %d", fromSeed.Converged, fromSeed.Iterations, fromFlat.Iterations)
	}
	for i := range fromFlat.X {
		if fromSeed.X[i] != fromFlat.X[i] {
			t.Fatalf("state %d: %.17g from the spoiled seed, %.17g from flat: the gate kept the seed", i, fromSeed.X[i], fromFlat.X[i])
		}
	}
	// The same subsystem's honest seed is kept, and pays.
	if _, eng1, err = sess.step1(victim, fx.ms); err != nil {
		t.Fatal(err)
	}
	good, err := eng1.Estimate(wls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := eng2.Estimate(sess.step2Options(victim, DSEOptions{}, good.State))
	if err != nil {
		t.Fatal(err)
	}
	if kept.Iterations >= fromFlat.Iterations {
		t.Errorf("from the honest seed: %d iterations, from flat %d", kept.Iterations, fromFlat.Iterations)
	}
}
