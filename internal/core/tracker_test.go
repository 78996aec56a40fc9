package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/scada"
	"repro/internal/wls"
)

func TestTrackerWarmStartsReduceIterations(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	plan := meas.FullPlan().Build(fx.net)
	plan = append(plan, PMUPlanFor(fx.dec, plan, 0.0005)...)
	feed := scada.NewSCADAFeed(fx.net, fx.truth, plan, 21)
	feed.Drift = 0.001

	tracker := NewTracker(fx.dec, DSEOptions{})
	var first, later int
	const frames = 4
	for k := 0; k < frames; k++ {
		fr, err := feed.Next()
		if err != nil {
			t.Fatal(err)
		}
		res, err := tracker.Process(fr.Measurements)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		// One round, so each phase's counters are its subsystems' sum.
		for step, st := range []struct {
			stats StepStats
			rs    []*wls.Result
		}{{res.Step1Stats, res.Step1}, {res.Step2Stats, res.Step2}} {
			var sum wls.Counters
			for _, r := range st.rs {
				sum.Add(r.Counters)
			}
			if st.stats.Counters != sum {
				t.Fatalf("frame %d step %d: counters %+v, its subsystems sum to %+v", k, step+1, st.stats.Counters, sum)
			}
		}
		if k == 0 {
			first = res.Step1Stats.Iterations
		} else {
			later += res.Step1Stats.Iterations
		}
		// Every frame's solution stays close to the (drifting) truth.
		var worst float64
		for i := range res.State.Vm {
			if d := math.Abs(res.State.Vm[i] - fx.truth.Vm[i]); d > worst {
				worst = d
			}
		}
		if worst > 0.05 {
			t.Fatalf("frame %d max Vm error %g", k, worst)
		}
	}
	if tracker.Frames != frames {
		t.Fatalf("frames = %d", tracker.Frames)
	}
	avgLater := float64(later) / float64(frames-1)
	if avgLater > float64(first) {
		t.Errorf("warm-started frames average %.1f GN iterations vs cold %d", avgLater, first)
	}
	t.Logf("step-1 iterations: cold %d, warm avg %.1f", first, avgLater)
}

func TestTrackerReset(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	tracker := NewTracker(fx.dec, DSEOptions{})
	if _, err := tracker.Process(fx.ms); err != nil {
		t.Fatal(err)
	}
	tracker.Reset()
	if tracker.Frames != 0 || tracker.warm != nil {
		t.Fatal("reset incomplete")
	}
	if _, err := tracker.Process(fx.ms); err != nil {
		t.Fatalf("process after reset: %v", err)
	}
}

// TestTrackerWarmStartNotAliased: the warm starts a tracker and its session
// carry into the next frame are their own copies. A caller that scribbles
// over every state vector it was handed changes no later frame: two trackers
// on twin decompositions stay bitwise equal, one of them with its results
// NaN-filled between frames.
func TestTrackerWarmStartNotAliased(t *testing.T) {
	fx, twin := newFixture(t, grid.Case118, 9, 1), newFixture(t, grid.Case118, 9, 1)
	scribbled := NewTracker(fx.dec, DSEOptions{Rounds: 2})
	untouched := NewTracker(twin.dec, DSEOptions{Rounds: 2})
	for f := 0; f < 4; f++ {
		frame := frameFor(t, fx, 1, int64(60+f))
		got, err := scribbled.Step(t.Context(), frame)
		if err != nil {
			t.Fatalf("frame %d after scribbling on the previous results: %v", f, err)
		}
		want, err := untouched.Step(t.Context(), frame)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		for i := range want.State.Vm {
			if math.Float64bits(got.State.Vm[i]) != math.Float64bits(want.State.Vm[i]) ||
				math.Float64bits(got.State.Va[i]) != math.Float64bits(want.State.Va[i]) {
				t.Fatalf("frame %d bus %d: %.17g/%.17g, untouched twin %.17g/%.17g",
					f, i, got.State.Vm[i], got.State.Va[i], want.State.Vm[i], want.State.Va[i])
			}
		}
		for _, rs := range [][]*wls.Result{got.Step1, got.Step2} {
			for _, r := range rs {
				for i := range r.X {
					r.X[i] = math.NaN()
				}
			}
		}
	}
}

// TestTrackerReadsAReusedFrameBuffer: a caller that rewrites one measurement
// slice in place between frames gets, bit for bit, what fresh slices get —
// at one and at three Step-2 rounds, from a tracker and from the testbed run
// warm-started the way a tracker is. The first Step-2 round of a frame reads
// the frame's values, whatever slice carries them, and the later rounds
// find them already in place.
func TestTrackerReadsAReusedFrameBuffer(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	frames := make([][]meas.Measurement, 3)
	for f := range frames {
		frames[f] = frameFor(t, fx, 1, int64(80+f))
	}
	ctx := t.Context()
	for _, rounds := range []int{1, 3} {
		// Twin decompositions, so each run keeps a session of its own.
		opts := DSEOptions{Rounds: rounds}
		fresh := NewTracker(fx.dec, opts)
		reused := NewTracker(newFixture(t, grid.Case118, 9, 1).dec, opts)
		onTestbed := newFixture(t, grid.Case118, 9, 1).dec
		buf := make([]meas.Measurement, len(frames[0]))
		var warm [][]float64
		for f, frame := range frames {
			want, err := fresh.Step(ctx, slices.Clone(frame))
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, frame)
			got, err := reused.Step(ctx, buf)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%d rounds, frame %d", rounds, f)
			requireSameRun(t, what+", reused buffer", got.State, got.Step1, got.Step2, want)
			dist, err := RunDistributed(ctx, onTestbed, buf, DistributedOptions{Clusters: 3, DSE: DSEOptions{Rounds: rounds, WarmStart: warm}})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, what+", reused buffer on the testbed", dist.State, dist.Step1, dist.Step2, want)
			warm = make([][]float64, len(dist.Step1))
			for si, r := range dist.Step1 {
				warm[si] = r.X
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameRun fails unless a run's aggregated state and every subsystem's
// Step-1 and last Step-2 estimate equal want's bit for bit, from as many
// Gauss–Newton iterations.
func requireSameRun(t *testing.T, what string, state powerflow.State, step1, step2 []*wls.Result, want *DSEResult) {
	t.Helper()
	for i := range want.State.Vm {
		if !sameBits(state.Vm[i], want.State.Vm[i]) || !sameBits(state.Va[i], want.State.Va[i]) {
			t.Fatalf("%s: bus %d at %.17g/%.17g, want %.17g/%.17g", what, i, state.Vm[i], state.Va[i], want.State.Vm[i], want.State.Va[i])
		}
	}
	for step, pair := range [][2][]*wls.Result{{step1, want.Step1}, {step2, want.Step2}} {
		for si, r := range pair[0] {
			w := pair[1][si]
			if r.Iterations != w.Iterations || !sameBits(r.ObjectiveJ, w.ObjectiveJ) || !slices.EqualFunc(r.X, w.X, sameBits) {
				t.Fatalf("%s: step %d subsystem %d took %d iterations to J %v, want %d to J %v", what, step+1, si, r.Iterations, r.ObjectiveJ, w.Iterations, w.ObjectiveJ)
			}
		}
	}
}

// TestDSEWithTopologyChange: a tie-line outage changes the decomposition;
// re-decomposing and re-running must keep working — the Bose et al.
// network-failure scenario the architecture must accommodate.
func TestDSEWithTopologyChange(t *testing.T) {
	n := grid.Case118()
	// Outage one line (not a radial one): 49-66 first circuit.
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
	if !n.Connected() {
		t.Fatal("outage should not island (double circuit)")
	}
	pfRes, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	pf := pfRes.State
	dec, err := Decompose(n, 9, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := meas.Simulate(n, plan, pf, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDSE(context.Background(), dec, ms, DSEOptions{})
	if err != nil {
		t.Fatalf("DSE after topology change: %v", err)
	}
	var worst float64
	for i := range res.State.Vm {
		if d := math.Abs(res.State.Vm[i] - pf.Vm[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.03 {
		t.Errorf("max Vm error %g after topology change", worst)
	}
}

// A NaN telemetered value must surface as meas.ErrBadMeasurement from every
// entry point — on a tracker's first (skeleton-building) frame, on a warm
// frame, and on the NewModel / UpdateValues steps in front of a direct wls
// estimate — not as a conjugate-gradient failure.
func TestBadMeasurementTypedErrorEndToEnd(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	plan := meas.FullPlan().Build(fx.net)
	plan = append(plan, PMUPlanFor(fx.dec, plan, 0.0005)...)
	good, err := meas.Simulate(fx.net, plan, fx.truth, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]meas.Measurement(nil), good...)
	bad[4].Value = math.NaN()

	cold := NewTracker(fx.dec, DSEOptions{})
	if _, err := cold.Step(context.Background(), bad); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("cold tracked frame with a NaN value: %v, want meas.ErrBadMeasurement", err)
	}
	warm := NewTracker(fx.dec, DSEOptions{})
	if _, err := warm.Step(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Step(context.Background(), bad); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("warm tracked frame with a NaN value: %v, want meas.ErrBadMeasurement", err)
	}
	if _, err := warm.Step(context.Background(), good); err != nil {
		t.Fatalf("tracker did not recover on the next clean frame: %v", err)
	}

	// A tie-line flow reaches only the coordinator's boundary system, whose
	// warm refresh folds the frame in place too.
	hier := DistributedOptions{Clusters: 3, HierarchicalRefine: true}
	if _, err := RunHierarchical(context.Background(), fx.dec, good, hier); err != nil {
		t.Fatal(err)
	}
	tie := append([]meas.Measurement(nil), good...)
	for i, m := range tie {
		if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == fx.dec.TieLines[0].Branch {
			tie[i].Value = math.NaN()
			break
		}
	}
	if _, err := RunHierarchical(context.Background(), fx.dec, tie, hier); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("warm hierarchical frame with a NaN tie-line flow: %v, want meas.ErrBadMeasurement", err)
	}

	ref := fx.net.SlackIndex()
	if _, err := meas.NewModel(fx.net, bad, ref, fx.truth.Va[ref]); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("NewModel with a NaN value: %v, want meas.ErrBadMeasurement", err)
	}
	// A rejected frame leaves the model as it was, so wls.Estimate still
	// solves the last good one.
	mod, err := meas.NewModel(fx.net, append([]meas.Measurement(nil), good...), ref, fx.truth.Va[ref])
	if err != nil {
		t.Fatal(err)
	}
	bad[4].Value = math.Inf(1)
	if err := mod.UpdateValues(bad); !errors.Is(err, meas.ErrBadMeasurement) {
		t.Fatalf("UpdateValues with a +Inf value: %v, want meas.ErrBadMeasurement", err)
	}
	if _, err := wls.Estimate(mod, wls.Options{}); err != nil {
		t.Fatalf("wls.Estimate after a rejected frame: %v", err)
	}
}

// TestTrackerSkeletonBuildCounter checks the session's build counter: the
// first tracked frame pays every skeleton construction, a second frame with
// the same layout pays none.
func TestTrackerSkeletonBuildCounter(t *testing.T) {
	n := grid.Case118()
	d, err := Decompose(n, 4, DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, PMUPlanFor(d, plan, 0)...)
	frame1, err := meas.Simulate(n, plan, pf.State, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := meas.Simulate(n, plan, pf.State, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	trk := NewTracker(d, DSEOptions{})
	if trk.SkeletonBuilds() != 0 {
		t.Fatalf("fresh tracker reports %d builds", trk.SkeletonBuilds())
	}
	if _, err := trk.Process(frame1); err != nil {
		t.Fatal(err)
	}
	b1 := trk.SkeletonBuilds()
	if b1 == 0 {
		t.Fatal("first frame built no skeletons")
	}
	if _, err := trk.Process(frame2); err != nil {
		t.Fatal(err)
	}
	if b2 := trk.SkeletonBuilds(); b2 != b1 {
		t.Fatalf("second frame performed %d skeleton builds, want 0", b2-b1)
	}
	trk.Reset()
	if trk.SkeletonBuilds() != 0 {
		t.Fatalf("reset tracker reports %d builds", trk.SkeletonBuilds())
	}
}
