package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// replayed is one run of replayDSE: the aggregated state, the Step-1
// solutions, and the Gauss–Newton iterations of Step 1 (iters[0]) and of
// each Step-2 round (iters[1+round]).
type replayed struct {
	state powerflow.State
	step1 []*wls.Result
	iters []int
}

// replayDSE runs the DSE sequence on sess from the session's step
// functions, one subsystem after another, with each phase's solver options
// chosen by wlsFor (phase 0 is Step 1, phase 1+r round r). warm is the
// Step-1 start a tracker hands in (nil: flat). It is Session.runDSE without
// the placement and with the tolerances left to the caller, so a test can
// solve every phase at Tol.
func replayDSE(t *testing.T, sess *Session, global []meas.Measurement, warm [][]float64, rounds int, wlsFor func(phase int) wls.Options) replayed {
	t.Helper()
	d := sess.d
	m := len(d.Subsystems)
	out := replayed{step1: make([]*wls.Result, m), iters: make([]int, rounds+1)}
	probs := make([]*Subproblem, m)
	for si := range m {
		sp, eng, err := sess.step1(si, global)
		if err != nil {
			t.Fatal(err)
		}
		w := wlsFor(0)
		if warm != nil {
			w.X0 = warm[si]
		}
		if out.step1[si], err = eng.Estimate(w); err != nil {
			t.Fatalf("step 1 subsystem %d: %v", si, err)
		}
		probs[si] = sp
		out.iters[0] += out.step1[si].Iterations
	}
	last := out.step1
	for round := range rounds {
		packets := make([]PseudoPacket, m)
		for si := range packets {
			packets[si] = d.ExtractPseudo(si, probs[si], last[si].State)
		}
		next := make([]*wls.Result, m)
		for si := range m {
			sp, eng, err := sess.step2(si, global, incomingFor(d, si, packets), round == 0)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.Estimate(sess.step2Options(si, DSEOptions{WLS: wlsFor(1 + round)}, out.step1[si].State))
			if err != nil {
				t.Fatalf("step 2 round %d subsystem %d: %v", round, si, err)
			}
			sess.noteStep2(si, r.X)
			probs[si], next[si] = sp, r
			out.iters[1+round] += r.Iterations
		}
		last = next
	}
	nb := d.Net.N()
	out.state = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	for si, sp := range probs {
		sp.MergeInto(d, last[si].State, &out.state)
	}
	return out
}

// atTol solves every phase at Tol; asRun solves them as runDSE does, Step 1
// and every round before the last at the intermediate tolerance.
func atTol(int) wls.Options { return wls.Options{} }

func asRun(sess *Session, rounds int) func(int) wls.Options {
	return func(phase int) wls.Options {
		if phase == rounds {
			return wls.Options{}
		}
		return sess.intermediateWLS(wls.Options{})
	}
}

func requireSameState(t *testing.T, what string, got, want powerflow.State) {
	t.Helper()
	for i := range want.Vm {
		if got.Vm[i] != want.Vm[i] || got.Va[i] != want.Va[i] {
			t.Fatalf("%s: bus %d at %.17g/%.17g, the replay at %.17g/%.17g", what, i, got.Vm[i], got.Va[i], want.Vm[i], want.Va[i])
		}
	}
}

// TestIntermediateSolvesStopEarly: Step 1 and every Step-2 round before the
// last stop at the intermediate tolerance, and the final states stay within
// 1e-5 of a run that solves every phase at Tol — standalone at one and two
// rounds, and over ten tracked frames at two, where Step 1 and round 0 take
// fewer Gauss–Newton iterations than at Tol on every frame. The reference is
// replayDSE at Tol, and replayDSE at the run's tolerances must be the run bit
// for bit, so the reference differs from the run in the tolerances alone.
// RunHierarchical's Step 1 is final output and stays at Tol.
func TestIntermediateSolvesStopEarly(t *testing.T) {
	ctx := context.Background()
	var worst float64
	for name, fx := range map[string]*fixture{
		"ieee118/9":   newFixture(t, grid.Case118, 9, 1),
		"synthwecc/4": weccFixture(t, 4),
	} {
		for _, rounds := range []int{1, 2} {
			res, err := RunDSE(ctx, fx.dec, fx.ms, DSEOptions{Rounds: rounds})
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession(fx.dec, DSEOptions{})
			requireSameState(t, name+" standalone", res.State, replayDSE(t, sess, fx.ms, nil, rounds, asRun(sess, rounds)).state)
			ref := replayDSE(t, NewSession(fx.dec, DSEOptions{}), fx.ms, nil, rounds, atTol)
			d := maxStateDiff(res.State, ref.state)
			if d > 1e-5 {
				t.Errorf("%s, %d rounds: %g from the run at Tol", name, rounds, d)
			}
			worst = math.Max(worst, d)
		}

		const rounds, frames = 2, 10
		tr := NewTracker(fx.dec, DSEOptions{Rounds: rounds})
		same, ref := NewSession(fx.dec, DSEOptions{}), NewSession(fx.dec, DSEOptions{})
		var sameWarm, refWarm [][]float64
		var saved, total int
		for f := range frames {
			frame := frameFor(t, fx, 1, int64(200+f))
			res, err := tr.Process(frame)
			if err != nil {
				t.Fatal(err)
			}
			got := replayDSE(t, same, frame, sameWarm, rounds, asRun(same, rounds))
			requireSameState(t, name+" tracked", res.State, got.state)
			if res.Step1Stats.Iterations != got.iters[0] || res.Step2Stats.Iterations != got.iters[1]+got.iters[2] {
				t.Fatalf("%s frame %d: the tracker took %d + %d iterations, the replay %v", name, f,
					res.Step1Stats.Iterations, res.Step2Stats.Iterations, got.iters)
			}
			want := replayDSE(t, ref, frame, refWarm, rounds, atTol)
			d := maxStateDiff(res.State, want.state)
			if d > 1e-5 {
				t.Errorf("%s frame %d: %g from the run at Tol", name, f, d)
			}
			worst = math.Max(worst, d)
			if early, full := got.iters[0]+got.iters[1], want.iters[0]+want.iters[1]; early >= full {
				t.Errorf("%s frame %d: Step 1 and round 0 took %d iterations, %d at Tol", name, f, early, full)
			}
			saved += want.iters[0] + want.iters[1] + want.iters[2] - res.Step1Stats.Iterations - res.Step2Stats.Iterations
			total += want.iters[0] + want.iters[1] + want.iters[2]
			sameWarm, refWarm = resultsX(got.step1), resultsX(want.step1)
		}
		t.Logf("%s: %d tracked frames took %d of %d Gauss–Newton iterations at Tol", name, frames, total-saved, total)
	}
	t.Logf("worst distance from the runs at Tol: %.2g", worst)

	fx := newFixture(t, grid.Case118, 9, 1)
	hier, err := RunHierarchical(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := replayDSE(t, NewSession(fx.dec, DSEOptions{}), fx.ms, nil, 0, atTol)
	for si, r := range hier.Local {
		for k, x := range ref.step1[si].X {
			if r.X[k] != x {
				t.Fatalf("RunHierarchical subsystem %d: x[%d] = %.17g, Step 1 at Tol %.17g", si, k, r.X[k], x)
			}
		}
	}
}

// resultsX copies the solutions out of rs, as a tracker keeps them.
func resultsX(rs []*wls.Result) [][]float64 {
	xs := make([][]float64, len(rs))
	for i, r := range rs {
		xs[i] = append([]float64(nil), r.X...)
	}
	return xs
}
