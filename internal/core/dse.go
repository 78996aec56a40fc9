package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// DSEOptions configures a distributed state-estimation run.
type DSEOptions struct {
	// PseudoSigma weights exchanged pseudo-measurements
	// (default PseudoSigmaDefault).
	PseudoSigma float64
	// Rounds is the number of Step-2 re-evaluation rounds. Zero selects 1;
	// the convergence bound is the decomposition-graph diameter [10]. Only
	// the last round solves to WLS.Tol: Step 1 and the rounds before it are
	// intermediate, and stop at the looser tolerance Session.intermediateWLS
	// derives from PseudoSigma.
	Rounds int
	// WLS configures each local estimator. In process, with at least as
	// many subsystems as GOMAXPROCS, Workers 0 runs as 1: the phase already
	// keeps every core busy with solves.
	WLS wls.Options
	// WarmStart optionally provides a per-subsystem Step-1 starting state
	// (the previous frame's solution in tracking operation). Entries may
	// be nil; lengths must match each subproblem's state dimension.
	WarmStart [][]float64
	// RestoreObservability augments any unobservable subsystem's Step-1
	// measurement set with flat-profile pseudo-measurements
	// (wls.RestoreObservability) instead of failing — telemetry-loss
	// resilience at reduced redundancy.
	RestoreObservability bool
	// noStep2WarmStart starts every Step-2 solve from the flat profile
	// instead of from what the run already knows (Session.step2Start: the
	// previous round's or frame's solution, else this run's Step-1 state and
	// incoming pseudo-measurements, behind wls.WarmStartGate) — the baseline
	// the seed's tests compare against.
	noStep2WarmStart bool
}

// StepStats reports one DSE phase: its wall time and the summed counters
// of every subsystem solve it ran, over all rounds of a multi-round Step 2.
type StepStats struct {
	Duration time.Duration
	wls.Counters
}

// DSEResult is the outcome of a full DSE run.
type DSEResult struct {
	// State is the aggregated system-wide solution (final step).
	State powerflow.State
	// Step1 and Step2 hold the per-subsystem local results of each phase,
	// Step2 those of the last round. Step 1 is intermediate: its solves stop
	// at max(WLS.Tol, PseudoSigma/20), and Step 2's last round at WLS.Tol.
	Step1 []*wls.Result
	Step2 []*wls.Result
	// Step1Stats/Step2Stats aggregate timings and iteration counts.
	Step1Stats StepStats
	Step2Stats StepStats
	// ExchangeBytes is the total pseudo-measurement payload volume
	// (serialized), summed over all neighbor pairs and rounds.
	ExchangeBytes int
	// ExchangeMessages counts the point-to-point sends.
	ExchangeMessages int
	// phases is the driver's clock — Step1, Exchange, Step2 and Aggregate,
	// the middle two summed over rounds — which RunDistributed publishes in
	// DistributedResult.Timings.
	phases PhaseTimings
}

// RunDSE executes the DSE algorithm in-process: Step 1 on every subsystem,
// pseudo-measurement extraction and exchange, then Rounds of Step 2, and
// the final aggregation. A phase's subsystem estimations run side by side,
// on the caller and on up to GOMAXPROCS−1 persistent helpers. The global
// measurement set must contain a PMU angle measurement at every subsystem's
// reference bus (see PMUPlanFor).
//
// The context governs the whole run: cancellation is checked between
// Step-2 rounds and inside every subsystem's Gauss-Newton loop, and the
// first subsystem error cancels its siblings (fail-fast).
func RunDSE(ctx context.Context, d *Decomposition, global []meas.Measurement, opts DSEOptions) (*DSEResult, error) {
	sess := d.sessionFor(opts)
	defer sess.mu.Unlock()
	return sess.runDSE(ctx, inProcess{d}, global, inProcessOptions(d, opts))
}

// inProcessOptions returns opts as an in-process run solves under. A phase
// with at least one subsystem per P keeps every core busy with solves, so a
// solve left on the shared kernel pool (WLS.Workers 0) runs its kernels on
// its own goroutine instead: a solve parked on the pool leaves its P with no
// other subsystem to run, and waking it costs more than the pooled rows save
// (DESIGN §9). With fewer subsystems than Ps the pool has idle cores to fill,
// and the solves keep it.
func inProcessOptions(d *Decomposition, opts DSEOptions) DSEOptions {
	if opts.WLS.Workers == 0 && len(d.Subsystems) >= runtime.GOMAXPROCS(0) {
		opts.WLS.Workers = 1
	}
	return opts
}

// placement is what the DSE sequence does not know about itself: where a
// phase's solves run and how a round's packets travel. inProcess (RunDSE,
// Tracker) and *onTestbed (RunDistributed, RunHierarchical) are the two
// there are.
type placement interface {
	// forEach runs f once per subsystem and waits for all of them; phase
	// names the run phase in cancellation errors. No two calls of f for the
	// same subsystem overlap, the first error stops the rest (fail-fast),
	// and a nil return means every subsystem ran.
	forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error
	// exchange delivers a round's packets — packets[si] is what subsystem si
	// has for each of its neighbours — and refills incoming[si] with the
	// packets subsystem si received, in ascending FromSub order, which is
	// d.Neighbors order: the stable layout Session.step2 refreshes skeletons
	// against. A packet handed over in memory shares its States with
	// packets, which the next round overwrites.
	exchange(ctx context.Context, round int, packets []PseudoPacket, incoming [][]PseudoPacket) error
}

// inProcess places every estimator in the calling process: a phase runs on
// the phase runner (the caller and its helpers claiming subsystems from one
// counter), and a packet is handed over in memory.
type inProcess struct {
	d *Decomposition
}

func (p inProcess) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	return phases.run(ctx, phase, len(p.d.Subsystems), f)
}

func (p inProcess) exchange(_ context.Context, _ int, packets []PseudoPacket, incoming [][]PseudoPacket) error {
	for si := range incoming {
		incoming[si] = incoming[si][:0]
		for _, nb := range p.d.Neighbors(si) {
			incoming[si] = append(incoming[si], packets[nb])
		}
	}
	return nil
}

// runDSE is the DSE sequence — Step 1, then Rounds of pseudo-measurement
// exchange and Step 2, then aggregation — on a session the caller has
// locked, with its estimators placed by pl. Every driver runs this one
// spelling of it, so rounds, warm starts, observability restoration and the
// cancellation points mean the same thing wherever the estimators sit. It
// also keeps the clock: res.phases says where the run's time went.
func (sess *Session) runDSE(ctx context.Context, pl placement, global []meas.Measurement, opts DSEOptions) (*DSEResult, error) {
	opts = sess.beginRun(opts)
	defer sess.endRun()
	d := sess.d
	m := len(d.Subsystems)
	res := &DSEResult{Step2: make([]*wls.Result, m)}
	t := &res.phases

	// Step 1 and every round before the last hand on pseudo-measurements
	// only, so they stop at the intermediate tolerance; the last round keeps
	// the caller's.
	inter := opts
	inter.WLS = sess.intermediateWLS(opts.WLS)
	start := time.Now()
	probs, step1, err := sess.runStep1(ctx, pl, global, inter)
	if err != nil {
		return nil, err
	}
	t.Step1 = time.Since(start)
	res.Step1, res.Step1Stats.Duration = step1, t.Step1
	res.Step1Stats.addRound(step1)

	// Each round every subsystem tells its neighbours what it now holds of
	// the buses they watch — its Step-1 estimate first, then the previous
	// round's — and re-estimates with what it is told.
	last, rounds := step1, max(opts.Rounds, 1)
	packets, incoming := sess.roundBuffers(m)
	run := &sess.run
	run.opts, run.incoming, run.step2 = opts, incoming, res.Step2
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: canceled before step 2 round %d: %w", round, err)
		}
		start = time.Now()
		for si := range packets {
			packets[si] = PseudoPacket{FromSub: si, States: probs[si].appendPseudo(packets[si].States[:0], last[si].State)}
			// The volume is the algorithm's, whatever carries it: every
			// neighbour receives the packet's wire bytes.
			n := len(d.Neighbors(si))
			res.ExchangeBytes += n * packets[si].wireSize()
			res.ExchangeMessages += n
		}
		if err := pl.exchange(ctx, round, packets, incoming); err != nil {
			return nil, err
		}
		t.Exchange += time.Since(start)

		run.round, run.final = round, round == rounds-1
		start = time.Now()
		if err := pl.forEach(ctx, "step 2", sess.step2Task); err != nil {
			return nil, err
		}
		t.Step2 += time.Since(start)
		// res.Step2 is overwritten next round, so fold this round's
		// iteration counts into the stats now — Duration spans all rounds
		// and the counts must too.
		res.Step2Stats.addRound(res.Step2)
		last = res.Step2
	}
	res.Step2Stats.Duration = t.Exchange + t.Step2

	// Final step: aggregate the system-wide solution from each subsystem's
	// own buses.
	start = time.Now()
	nb := d.Net.N()
	res.State = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	for si, sp := range probs {
		sp.MergeInto(d, res.Step2[si].State, &res.State)
	}
	t.Aggregate = time.Since(start)
	return res, nil
}

// runStep1 is the sequence's first phase, which RunHierarchical runs alone:
// every subsystem's local estimate on the frame, started from
// opts.WarmStart where the caller supplied one. It returns the Step-1
// subproblems, in the session's list that Step 2 refills, beside the
// results. The caller has called beginRun, and calls endRun.
func (sess *Session) runStep1(ctx context.Context, pl placement, global []meas.Measurement, opts DSEOptions) ([]*Subproblem, []*wls.Result, error) {
	m := len(sess.d.Subsystems)
	if len(sess.probs) != m {
		sess.probs = make([]*Subproblem, m)
	}
	run := &sess.run
	run.global, run.opts, run.step1 = global, opts, make([]*wls.Result, m)
	err := pl.forEach(ctx, "step 1", sess.step1Task)
	return sess.probs, run.step1, err
}

// step1Phase is a Step-1 task (Session.step1Task): subsystem si's local
// estimate of the run's frame.
func (sess *Session) step1Phase(ctx context.Context, si int) error {
	run := &sess.run
	sess.step1Solves.Add(1)
	sp, eng, err := sess.step1(si, run.global)
	if err != nil {
		return err
	}
	w := run.opts.WLS
	if si < len(run.opts.WarmStart) && run.opts.WarmStart[si] != nil {
		w.X0 = run.opts.WarmStart[si]
	}
	r, err := eng.EstimateCtx(ctx, w)
	if err != nil {
		return fmt.Errorf("core: step 1 subsystem %d: %w", si, err)
	}
	sess.probs[si], run.step1[si] = sp, r
	return nil
}

// step2Phase is a Step-2 task (Session.step2Task): subsystem si's estimate
// in the run's current round, on what its neighbours sent.
func (sess *Session) step2Phase(ctx context.Context, si int) error {
	run := &sess.run
	sp, eng, err := sess.step2(si, run.global, run.incoming[si], run.round == 0)
	if err != nil {
		return err
	}
	w := sess.step2Options(si, run.opts, run.step1[si].State)
	if !run.final {
		w = sess.intermediateWLS(w)
	}
	r, err := eng.EstimateCtx(ctx, w)
	if err != nil {
		return fmt.Errorf("core: step 2 subsystem %d: %w", si, err)
	}
	sess.noteStep2(si, r.X)
	sess.probs[si], run.step2[si] = sp, r
	return nil
}

// PMUPlanFor returns the PMU measurements (voltage angle + magnitude) that
// the DSE run requires at each subsystem's reference bus, to be appended to
// the metering plan before simulation. Already-covered reference buses are
// skipped.
func PMUPlanFor(d *Decomposition, base []meas.Measurement, sigma float64) []meas.Measurement {
	if sigma <= 0 {
		sigma = 0.001
	}
	have := make(map[int]bool)
	for _, m := range base {
		if m.Kind == meas.Angle {
			have[m.Bus] = true
		}
	}
	var extra []meas.Measurement
	for _, s := range d.Subsystems {
		id := d.Net.Buses[s.RefBus].ID
		if have[id] {
			continue
		}
		extra = append(extra,
			meas.Measurement{Kind: meas.Angle, Bus: id, Sigma: sigma},
			meas.Measurement{Kind: meas.Vmag, Bus: id, Sigma: sigma})
	}
	return extra
}

// restoreSubproblem augments an unobservable subproblem with flat-profile
// pseudo-measurements.
func restoreSubproblem(sp *Subproblem) error {
	augmented, added := wls.RestoreObservability(sp.Model)
	if len(added) == 0 {
		return nil
	}
	return sp.ReplaceMeasurements(augmented)
}

// addRound accumulates one round's per-subsystem counters.
// Multi-round phases call it once per round so the totals cover the same
// span as Duration.
func (st *StepStats) addRound(results []*wls.Result) {
	for _, r := range results {
		if r != nil {
			st.Add(r.Counters)
		}
	}
}
