package core

import (
	"context"

	"repro/internal/meas"
)

// Tracker runs distributed state estimation over successive measurement
// frames (the SCADA/PMU acquisition cycles), warm-starting every
// subsystem's Step-1 solve from the previous frame's Step-1 solution (an
// intermediate one, see DSEResult.Step1) and every Step-2 solve from the
// previous frame's last round, solved to Tol. This is the
// real-time operating mode the architecture targets: the estimator tracks
// the slowly drifting system state instead of re-solving from scratch.
type Tracker struct {
	Dec  *Decomposition
	Opts DSEOptions

	// warm holds the previous frame's Step-1 solutions in buffers the
	// tracker owns: the solutions themselves go out in DSEResult.
	warm [][]float64
	// sess is the tracker's own Session: subproblem skeletons, solver
	// engines, and Step-2 warm carries are built on the first frame and
	// value-refreshed on every later one.
	sess *Session
	// Frames counts processed frames.
	Frames int
}

// NewTracker prepares a tracker for the decomposition.
func NewTracker(d *Decomposition, opts DSEOptions) *Tracker {
	return &Tracker{Dec: d, Opts: opts}
}

// Process runs one full DSE pass on a measurement frame. It is the
// uncancellable convenience form of Step.
func (t *Tracker) Process(frame []meas.Measurement) (*DSEResult, error) {
	return t.Step(context.Background(), frame)
}

// Step runs one full DSE pass on a measurement frame and retains the
// per-subsystem solutions as the next frame's warm start. Cancellation
// aborts the pass without corrupting the warm-start state: a canceled frame
// leaves the warm starts and Frames as they were. The phases it finished
// still moved the engines' lagged gains (and a finished Step-2 round the
// Step-2 carries), so the next frame agrees with an uncanceled tracker's to
// the solve tolerance, not bit for bit.
func (t *Tracker) Step(ctx context.Context, frame []meas.Measurement) (*DSEResult, error) {
	return t.stepOn(ctx, inProcess{t.Dec}, frame)
}

// stepOn is Step with the frame's phases placed by pl.
func (t *Tracker) stepOn(ctx context.Context, pl placement, frame []meas.Measurement) (*DSEResult, error) {
	opts := t.Opts
	opts.WarmStart = t.warm
	if t.sess == nil || t.sess.d != t.Dec || t.sess.cfg != sessionConfigFor(opts) {
		t.sess = NewSession(t.Dec, opts)
	}
	sess := lockOrClone(t.sess, t.Dec, opts)
	defer sess.mu.Unlock()
	res, err := sess.runDSE(ctx, pl, frame, inProcessOptions(t.Dec, opts))
	if err != nil {
		return nil, err
	}
	if t.warm == nil {
		t.warm = make([][]float64, len(t.Dec.Subsystems))
	}
	for si, r := range res.Step1 {
		if r != nil {
			t.warm[si] = append(t.warm[si][:0], r.X...)
		}
	}
	t.Frames++
	return res, nil
}

// SkeletonBuilds reports how many skeleton constructions (Step-1 and Step-2
// subproblems, each with a fresh engine and its symbolic plans) the
// tracker's pinned session has performed since the tracker was created or
// last Reset. A steady tracked frame adds zero; callers sample the counter
// around a Step to verify a frame was value-refresh only.
func (t *Tracker) SkeletonBuilds() int {
	if t.sess == nil {
		return 0
	}
	return t.sess.SkeletonBuilds()
}

// Reset drops the warm-start state and the session — skeletons, engines,
// and warm carries together (after a topology change, for example, all of
// them describe a layout that no longer exists).
func (t *Tracker) Reset() {
	t.warm = nil
	t.sess = nil
	t.Frames = 0
}
