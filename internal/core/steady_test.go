package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
)

// steadyTracker returns a tracker on IEEE-118 in 9 subsystems at Rounds 2
// that has served each of four noise draws once, and the draws.
func steadyTracker(t *testing.T) (*Tracker, [][]meas.Measurement) {
	t.Helper()
	fx := newFixture(t, grid.Case118, 9, 1)
	frames := make([][]meas.Measurement, 4)
	for k := range frames {
		frames[k] = frameFor(t, fx, 1, int64(31+k))
	}
	tr := NewTracker(fx.dec, DSEOptions{Rounds: 2})
	for _, f := range frames {
		if _, err := tr.Process(f); err != nil {
			t.Fatal(err)
		}
	}
	return tr, frames
}

// TestSteadyTrackedFrameAllocations pins what a steady tracked frame
// allocates: the DSEResult it returns with every solve's Result and the
// one block that Result's slices share, and the phase bookkeeping. The
// round's packets and incoming lists are the session's.
func TestSteadyTrackedFrameAllocations(t *testing.T) {
	tr, frames := steadyTracker(t)
	builds, k := tr.SkeletonBuilds(), 0
	allocs := testing.AllocsPerRun(12, func() {
		k++
		if _, err := tr.Process(frames[k%len(frames)]); err != nil {
			t.Fatal(err)
		}
	})
	if b := tr.SkeletonBuilds(); b != builds {
		t.Fatalf("steady frames built %d skeletons", b-builds)
	}
	// 27 solves of 2 (a Result and its block); 5 in runDSE (the DSEResult,
	// its Step-2 and Step-1 lists and the aggregated state's two slices);
	// and per phase the phase runner's job, error list and context (4 × 3).
	// The phase tasks and the subproblem list are the session's. AllocsPerRun
	// runs at GOMAXPROCS 1, so the runner starts no helper and makes no done
	// channel.
	const want = 71
	if allocs > want {
		t.Errorf("a steady tracked frame allocated %v times, want at most %d", allocs, want)
	}
}

// stepTwoOnly returns a frame position only subsystem si's Step-2 skeleton
// reads: a flow on one of its tie lines metered at its own end.
func stepTwoOnly(t *testing.T, tr *Tracker, frame []meas.Measurement) (si, pos int) {
	t.Helper()
	d := tr.Dec
	for pos, m := range frame {
		if m.Kind != meas.Pflow && m.Kind != meas.Qflow {
			continue
		}
		for _, tl := range d.TieLines {
			if tl.Branch != m.Branch {
				continue
			}
			br := d.Net.Branches[tl.Branch]
			meter := br.To
			if m.FromSide {
				meter = br.From
			}
			return d.Owner[d.Net.MustIndex(meter)], pos
		}
	}
	t.Fatal("no tie-line flow in the frame")
	return 0, 0
}

// checkStep2Values fails unless every frame-fed value of the Step-2
// skeletons of subsystems (nil: all) is the frame's.
func checkStep2Values(t *testing.T, tr *Tracker, frame []meas.Measurement, subsystems ...int) {
	t.Helper()
	if subsystems == nil {
		for si := range tr.sess.subs {
			subsystems = append(subsystems, si)
		}
	}
	for _, si := range subsystems {
		sp := tr.sess.subs[si].step2
		for i, s := range sp.src {
			if s >= 0 && sp.Model.Meas[i].Value != frame[s].Value {
				t.Fatalf("subsystem %d: Step-2 measurement %d holds %v, frame position %d %v", si, i, sp.Model.Meas[i].Value, s, frame[s].Value)
			}
		}
	}
}

// TestStep2ChecksWhatStep1DoesNotRead: a non-finite value at a position only
// Step 2 reads — a tie-line flow — is refused as a bad measurement of that
// subsystem's model, and the next clean frame is served.
func TestStep2ChecksWhatStep1DoesNotRead(t *testing.T) {
	tr, frames := steadyTracker(t)
	si, pos := stepTwoOnly(t, tr, frames[0])
	for _, j := range tr.sess.subs[si].step1.src {
		if int(j) == pos {
			t.Fatalf("frame position %d is Step 1's too", pos)
		}
	}
	bad := append([]meas.Measurement(nil), frames[0]...)
	bad[pos].Value = math.NaN()
	_, err := tr.Process(bad)
	if !errors.Is(err, meas.ErrBadMeasurement) || !strings.Contains(err.Error(), fmt.Sprintf("subsystem %d model", si)) {
		t.Fatalf("NaN at Step-2-only frame position %d (%s): %v", pos, bad[pos].Key(), err)
	}
	if _, err := tr.Process(frames[1]); err != nil {
		t.Fatal(err)
	}
	checkStep2Values(t, tr, frames[1])
}

// TestSharedLayoutChangeRebuildsBothSkeletons: a frame position both steps
// of a subsystem read changes identity (its sigma). Both skeletons check the
// frame and rebuild: two builds, and the values are the frame's. The next
// frame of the new layout builds nothing.
func TestSharedLayoutChangeRebuildsBothSkeletons(t *testing.T) {
	tr, frames := steadyTracker(t)
	const si = 2
	sl := &tr.sess.subs[si]
	step1Reads := make(map[int32]bool)
	for _, s := range sl.step1.src {
		step1Reads[s] = true
	}
	pos := -1
	for _, s := range sl.step2.src {
		if s >= 0 && s != sl.step1.refSrc && step1Reads[s] {
			pos = int(s)
			break
		}
	}
	if pos < 0 {
		t.Fatal("no frame position both skeletons read")
	}
	relayout := func(f []meas.Measurement) []meas.Measurement {
		out := append([]meas.Measurement(nil), f...)
		out[pos].Sigma *= 2
		return out
	}
	builds := tr.SkeletonBuilds()
	next := relayout(frames[0])
	if _, err := tr.Process(next); err != nil {
		t.Fatal(err)
	}
	if b := tr.SkeletonBuilds() - builds; b != 2 {
		t.Errorf("the layout change built %d skeletons, want 2", b)
	}
	checkStep2Values(t, tr, next)
	builds = tr.SkeletonBuilds()
	next = relayout(frames[1])
	if _, err := tr.Process(next); err != nil {
		t.Fatal(err)
	}
	if b := tr.SkeletonBuilds() - builds; b != 0 {
		t.Errorf("a frame of the new layout built %d skeletons", b)
	}
	checkStep2Values(t, tr, next)
}

// TestStep1RebuildKeepsStep2Skeleton: where a subsystem's Step-1 skeleton is
// rebuilt on a frame whose layout has not changed, the Step-2 skeleton stays
// and reads that frame and the next ones itself.
func TestStep1RebuildKeepsStep2Skeleton(t *testing.T) {
	tr, frames := steadyTracker(t)
	const si = 5
	sl := &tr.sess.subs[si]
	dropped, step2 := sl.step1, sl.step2
	dropped.src = nil // the next refresh fails, and Step 1 rebuilds
	builds := tr.SkeletonBuilds()
	if _, err := tr.Process(frames[1]); err != nil {
		t.Fatal(err)
	}
	if b := tr.SkeletonBuilds() - builds; b != 1 || sl.step2 != step2 || sl.step1 == dropped {
		t.Fatalf("built %d skeletons; Step 2 kept %v, Step 1 rebuilt %v", b, sl.step2 == step2, sl.step1 != dropped)
	}
	checkStep2Values(t, tr, frames[1])
	if _, err := tr.Process(frames[2]); err != nil {
		t.Fatal(err)
	}
	checkStep2Values(t, tr, frames[2])
}
