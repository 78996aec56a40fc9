package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// roundSpec is one measured round: a wall-clock budget or, when ops > 0, a
// fixed operation count (counters then repeat exactly between runs).
type roundSpec struct {
	budget time.Duration
	ops    int
	traced bool
}

// roundStats is what one round measured.
type roundStats struct {
	traced        bool
	ops           int
	busy          time.Duration // summed operation wall time
	p50ms         float64
	yardMS        float64 // median of the yardstick bursts before and after the round
	mallocs, heap uint64  // runtime.MemStats Mallocs / TotalAlloc deltas
}

// tally accumulates one workload's run: every operation stays in attempted,
// whether or not it failed.
type tally struct {
	w   workload
	in  *inputs
	tr  *tracer // spans of the traced rounds and the layer replay; nil when untraced
	max float64 // per-operation angle-error limit, radians

	rounds    []roundStats
	opMS      []float64 // untraced operation times, pooled over rounds
	tracedMS  []float64
	next      int // index of the next operation; frames cycle across rounds
	attempted int
	failed    int
	firstFail string

	c            counts
	angSq, vmSq  float64 // summed squared errors over angN bus samples
	angN         int
	sumJ, sumDoF float64
}

func newTally(w workload, in *inputs, tr *tracer) *tally {
	return &tally{w: w, in: in, tr: tr, max: 3 * w.pinMrad * 1e-3}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf(format, args...)
	}
}

// runRound drives inst in a closed loop: one caller, the next operation
// issued when the previous one has returned and been checked. Allocation
// counters are read around the round, outside any timed operation, and the
// yardstick is sampled outside them.
func (t *tally) runRound(ctx context.Context, inst instance, spec roundSpec) {
	var tr *tracer
	if spec.traced {
		tr = t.tr
	}
	var before, after runtime.MemStats
	durs := make([]float64, 0, 4096)
	rs := roundStats{traced: spec.traced}
	yard := yardBurst()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last time.Duration
	for n := 0; ; n++ {
		if spec.ops > 0 && n >= spec.ops {
			break
		}
		// A window closes when one more operation would overshoot it by more
		// than it now falls short, so rounds of long operations neither all
		// overrun nor all underrun.
		if spec.ops == 0 && n > 0 && time.Since(start)+last/2 >= spec.budget {
			break
		}
		tr.nextOp()
		op := tr.begin("gridse.op", -1)
		r, d, err := inst.run(ctx, t.next)
		tr.end(op)
		t.next++
		t.attempted++
		rs.ops++
		rs.busy += d
		last = d
		durs = append(durs, ms(d))
		if err != nil {
			t.fail("op %d: %v", t.next-1, err)
		} else {
			if tr != nil {
				off := time.Duration(r.c[cLead])
				for _, p := range phaseSpans {
					if d := time.Duration(r.c[p.c]); d > 0 {
						off = tr.child(p.name, op, off, d)
					}
				}
			}
			t.c.add(&r.c)
			t.check(&r)
		}
	}
	runtime.ReadMemStats(&after)
	rs.yardMS = median(append(yard, yardBurst()...))
	rs.mallocs = after.Mallocs - before.Mallocs
	rs.heap = after.TotalAlloc - before.TotalAlloc
	rs.p50ms = median(durs)
	t.rounds = append(t.rounds, rs)
	if spec.traced {
		t.tracedMS = append(t.tracedMS, durs...)
	} else {
		t.opMS = append(t.opMS, durs...)
	}
}

// check applies the per-operation correctness rules and folds the
// operation's accuracy into the run's sums.
func (t *tally) check(r *result) {
	for _, e := range r.final {
		if !e.Converged {
			t.fail("op %d: an estimate did not converge", t.next-1)
			return
		}
		t.sumJ += e.ObjectiveJ
		t.sumDoF += float64(len(e.Residuals) - len(e.X))
	}
	if r.sweep != nil {
		t.checkSweep(r)
		return
	}
	var ang, vm float64
	for i, va := range r.state.Va {
		da, dv := va-t.in.truth.Va[i], r.state.Vm[i]-t.in.truth.Vm[i]
		ang += da * da
		vm += dv * dv
	}
	n := len(r.state.Va)
	if math.IsNaN(ang+vm) || math.IsInf(ang+vm, 0) {
		t.fail("op %d: non-finite state", t.next-1)
		return
	}
	if rms := math.Sqrt(ang / float64(n)); rms > t.max {
		t.fail("op %d: angle error %.4f mrad above 3x the pinned %.4f", t.next-1, rms*1e3, t.w.pinMrad)
		return
	}
	t.angSq += ang
	t.vmSq += vm
	t.angN += n
}

// checkSweep compares a screen118 sweep, case by case, with the cold scalar
// reference of the same frame: same verdict, state within screenTol.
func (t *tally) checkSweep(r *result) {
	ref := t.in.ref[r.frame]
	if len(r.sweep) != len(ref) {
		t.fail("op %d: %d cases, reference has %d", t.next-1, len(r.sweep), len(ref))
		return
	}
	var ang, vm, worst float64
	n := 0
	for k := range ref {
		got, want := &r.sweep[k], &ref[k]
		if got.Outage != want.Outage || got.Islanding != want.Islanding || len(got.Violations) != len(want.Violations) {
			t.fail("op %d: outage %d verdict differs from the reference", t.next-1, want.Outage)
			return
		}
		for v := range want.Violations {
			if got.Violations[v].Branch != want.Violations[v].Branch {
				t.fail("op %d: outage %d flags branch %d, reference %d", t.next-1, want.Outage,
					got.Violations[v].Branch, want.Violations[v].Branch)
				return
			}
		}
		if want.Estimate == nil {
			continue
		}
		if got.Estimate == nil || !got.Estimate.Converged {
			t.fail("op %d: outage %d has no converged estimate", t.next-1, want.Outage)
			return
		}
		t.sumJ += got.Estimate.ObjectiveJ
		t.sumDoF += float64(len(got.Estimate.Residuals) - len(got.Estimate.X))
		gs, ws := got.Estimate.State, want.Estimate.State
		for i := range ws.Va {
			da, dv := gs.Va[i]-ws.Va[i], gs.Vm[i]-ws.Vm[i]
			ang += da * da
			vm += dv * dv
			worst = math.Max(worst, math.Max(math.Abs(da), math.Abs(dv)))
		}
		n += len(ws.Va)
	}
	if !(worst <= screenTol) {
		t.fail("op %d: a case state sits %.3g from the reference, limit %.3g", t.next-1, worst, screenTol)
		return
	}
	t.angSq += ang
	t.vmSq += vm
	t.angN += n
}

// perRound lists one per-round value over the untraced rounds.
func (t *tally) perRound(f func(roundStats) float64) []float64 {
	var xs []float64
	for _, r := range t.rounds {
		if !r.traced {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// endToEnd computes the end-to-end metrics from the untraced rounds, and
// for the metrics that have them the per-round (per-set-up) values behind
// each. Rounds are combined by the median, so a noisy stretch of the machine
// costs one round, not the run. Times are calibrated by the yardstick
// bursts taken around them (yardstick.go).
func (t *tally) endToEnd(setups []setupTimes, setupCal float64) ([]row, map[string][]float64) {
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.total.Seconds()*setupCal)
	}
	cal := func(r roundStats) float64 { return yardNominalMS / r.yardMS }
	per := map[string][]float64{
		"setup_s":          setupS,
		"op_ms_p50":        t.perRound(func(r roundStats) float64 { return r.p50ms * cal(r) }),
		"ops_per_s":        t.perRound(func(r roundStats) float64 { return float64(r.ops) / r.busy.Seconds() / cal(r) }),
		"allocs_per_op":    t.perRound(func(r roundStats) float64 { return float64(r.mallocs) / float64(r.ops) }),
		"alloc_kib_per_op": t.perRound(func(r roundStats) float64 { return float64(r.heap) / 1024 / float64(r.ops) }),
	}
	rows := []row{
		{"setup_s", median(per["setup_s"]), "s"},
		{"op_ms_p50", median(per["op_ms_p50"]), "ms"},
		{"ops_per_s", median(per["ops_per_s"]), "1/s"},
		{"allocs_per_op", median(per["allocs_per_op"]), "count"},
		{"alloc_kib_per_op", median(per["alloc_kib_per_op"]), "KiB"},
		// Floored so that sub-microradian reordering does not register.
		{"state_err_mrad", math.Max(0.001, 1e3*math.Sqrt(ratio(t.angSq, float64(t.angN)))), "mrad"},
		{"j_per_dof", ratio(t.sumJ, t.sumDoF), "1"},
	}
	return rows, per
}

// timedSetups runs the workload's cold set-up k times on fresh objects and
// returns the last instance, warm, with every set-up's times and the
// calibration factor from yardstick bursts taken between the set-ups.
func timedSetups(ctx context.Context, w workload, in *inputs, k int) (instance, []setupTimes, float64, error) {
	var inst instance
	var all []setupTimes
	var yard []float64
	for i := 0; i < k; i++ {
		// The burst's collection also takes the previous set-up's garbage
		// outside the timed part.
		inst = nil
		yard = append(yard, yardBurst()...)
		var st setupTimes
		var err error
		inst, st, err = w.setup(ctx, in)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		all = append(all, st)
	}
	yard = append(yard, yardBurst()...)
	return inst, all, yardNominalMS / median(yard), nil
}
