package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// Session is the per-decomposition DSE pipeline state: it keeps every
// subsystem's Step-1 and Step-2 subproblem skeletons and the hierarchical
// coordinator's boundary system, all from one builder (sub-network,
// measurement mapping, model structure — all topology-invariant), the
// reusable WLS engines built on them (symbolic Jacobian and gain plans, the
// LDLᵀ factor's analysis, and the lagged gain and factor of the reuse tier),
// and the cross-round Gauss–Newton warm-start state. The session prices
// symbolic work per topology: the first frame (and first Step-2 round)
// builds everything, and every subsequent frame and round is a value-only
// refresh through Subproblem.UpdateMeasurements / UpdatePseudo.
//
// Every Decomposition lazily owns one session, which RunDSE,
// RunDistributed, and RunHierarchical acquire automatically; a Tracker
// pins a private one. A session serves one run at a time — acquisition is
// a TryLock, and a concurrent run on the same decomposition falls back to
// a throwaway private session rather than blocking or racing.
//
// Concurrency invariant: within a run, subsystem slot si is touched only
// from the driver's per-subsystem work, and a placement never overlaps two
// calls for one subsystem (in process a subsystem is claimed once per phase,
// on the testbed its site runs it), so slots need no locking of their own.
type Session struct {
	d   *Decomposition
	cfg sessionConfig

	// mu serializes runs: held for the duration of one orchestrator call.
	mu sync.Mutex

	subs []subSession
	// coord is the hierarchical coordinator's boundary system and coordEng
	// its engine (refineBoundary); coordIn[0] holds the aggregated boundary
	// states it takes as pseudo-measurements.
	coord    *Subproblem
	coordEng *wls.Engine
	coordIn  [1]PseudoPacket

	// packets and incoming are runDSE's round buffers, refilled every round
	// and frame: packets[si] is what subsystem si sends, its States
	// rewritten in place, and incoming[si] the list it receives. probs is
	// the list of every subsystem's current subproblem, refilled by each
	// phase.
	packets  []PseudoPacket
	incoming [][]PseudoPacket
	probs    []*Subproblem

	// run is what the phase tasks of the run in flight read, and step1Task
	// and step2Task are those tasks (step1Phase, step2Phase), made once
	// with the session so that no phase of a run makes a closure.
	run                  dseRun
	step1Task, step2Task func(ctx context.Context, si int) error
	// step1Solves counts the Step-1 solves the session has started.
	step1Solves atomic.Int64

	// builds counts skeleton constructions (see SkeletonBuilds). Atomic
	// because subsystems build concurrently within a run.
	builds atomic.Int64
}

// subSession is one subsystem's slot: skeletons, engines, and the Step-2
// warm-start carry. Accessed only by the goroutine running that subsystem's
// work of the phase.
type subSession struct {
	step1, step2 *Subproblem
	eng1, eng2   *wls.Engine
	// warm2 is the subsystem's previous Step-2 solution; the next round
	// (or, in tracking operation, the next frame) starts Gauss–Newton from
	// it behind the wls.WarmStartGate scaled-residual gate.
	warm2     []float64
	haveWarm2 bool
	// seed is the scratch state step2Start assembles a seed in, on the
	// Step-2 network.
	seed powerflow.State
}

// dseRun is the run in flight, as its phase tasks read it: the frame, the
// options of the current phase, and for Step 2 the round, the incoming
// packets and the lists the phases' results go to. endRun clears it.
type dseRun struct {
	global       []meas.Measurement
	opts         DSEOptions
	round        int
	final        bool
	incoming     [][]PseudoPacket
	step1, step2 []*wls.Result
}

// sessionConfig captures the DSEOptions fields baked into the cached
// skeletons; a change means the skeletons no longer describe the problem
// and the session must be rebuilt.
type sessionConfig struct {
	pseudoSigma float64
	restore     bool
}

func sessionConfigFor(opts DSEOptions) sessionConfig {
	cfg := sessionConfig{
		pseudoSigma: opts.PseudoSigma,
		restore:     opts.RestoreObservability,
	}
	if cfg.pseudoSigma <= 0 {
		cfg.pseudoSigma = PseudoSigmaDefault
	}
	return cfg
}

// NewSession builds an empty session for the decomposition. Skeletons and
// engines materialize lazily as runs touch each subsystem.
func NewSession(d *Decomposition, opts DSEOptions) *Session {
	s := &Session{d: d, cfg: sessionConfigFor(opts), subs: make([]subSession, len(d.Subsystems))}
	s.step1Task, s.step2Task = s.step1Phase, s.step2Phase
	return s
}

// Reset drops every cached skeleton, engine, and warm-start vector. Call
// it (or Tracker.Reset, which does) after anything that changes problem
// structure out from under the session.
func (s *Session) Reset() {
	for i := range s.subs {
		s.subs[i] = subSession{}
	}
	s.coord, s.coordEng = nil, nil
}

// beginRun prepares the session for one orchestrator call and returns the
// options the call's solves run under. Under the default ReuseGain tier
// (DESIGN §10), Step-2 rounds and tracked frames solve on the previous
// solve's gain and factor while the state stays inside the drift gate.
// Warm-start carries and the engines' reuse anchors are kept only for a
// continuing tracking run (the caller supplied the previous frame's
// solutions); a standalone run always starts cold so that repeated runs over
// the same data stay bit-identical.
func (s *Session) beginRun(opts DSEOptions) DSEOptions {
	if opts.WarmStart != nil {
		return opts
	}
	for i := range s.subs {
		s.subs[i].haveWarm2 = false
		if s.subs[i].eng1 != nil {
			s.subs[i].eng1.ResetReuse()
		}
		if s.subs[i].eng2 != nil {
			s.subs[i].eng2.ResetReuse()
		}
	}
	if s.coordEng != nil {
		s.coordEng.ResetReuse()
	}
	return opts
}

// endRun drops the session's references to the run that beginRun began:
// its frame, options and result lists.
func (s *Session) endRun() { s.run = dseRun{} }

// step1 returns subsystem si's Step-1 subproblem and engine, refreshed
// with the frame's values. The skeleton and engine are built on first use
// (including observability restoration when the session is configured for
// it) and value-refreshed afterwards; a stale skeleton is rebuilt.
func (s *Session) step1(si int, global []meas.Measurement) (*Subproblem, *wls.Engine, error) {
	sl := &s.subs[si]
	if sl.step1 != nil && sl.step1.UpdateMeasurements(global) == nil {
		return sl.step1, sl.eng1, nil
	}
	sp, err := s.d.BuildStep1(si, global)
	if err != nil {
		return nil, nil, err
	}
	if s.cfg.restore {
		if err := restoreSubproblem(sp); err != nil {
			return nil, nil, fmt.Errorf("core: step 1 subsystem %d restoration: %w", si, err)
		}
	}
	sl.step1, sl.eng1 = sp, wls.NewEngine(sp.Model)
	s.builds.Add(1)
	return sp, sl.eng1, nil
}

// step2 returns subsystem si's Step-2 subproblem and engine, refreshed
// with the round's incoming packets and, when newFrame says this is the
// frame's first round, with the frame's values: a later round finds them
// already in the skeleton, which that first round refreshed or built. The
// incoming slice must be in a stable order across rounds and frames (the
// placements deliver ascending FromSub, which is d.Neighbors order).
func (s *Session) step2(si int, global []meas.Measurement, incoming []PseudoPacket, newFrame bool) (*Subproblem, *wls.Engine, error) {
	sl := &s.subs[si]
	if sl.step2 != nil &&
		(!newFrame || sl.step2.UpdateMeasurements(global) == nil) &&
		sl.step2.UpdatePseudo(incoming) == nil {
		return sl.step2, sl.eng2, nil
	}
	sp, err := s.d.BuildStep2(si, global, incoming, s.cfg.pseudoSigma)
	if err != nil {
		return nil, nil, err
	}
	sl.step2, sl.eng2 = sp, wls.NewEngine(sp.Model)
	sl.warm2, sl.haveWarm2 = nil, false // state layout may have shifted
	s.builds.Add(1)
	return sp, sl.eng2, nil
}

// roundBuffers returns runDSE's round buffers for m subsystems.
func (s *Session) roundBuffers(m int) ([]PseudoPacket, [][]PseudoPacket) {
	if len(s.packets) != m {
		s.packets, s.incoming = make([]PseudoPacket, m), make([][]PseudoPacket, m)
	}
	return s.packets, s.incoming
}

// SkeletonBuilds reports the cumulative number of skeleton constructions
// this session has performed: Subproblem builds — a subsystem's Step 1 or
// Step 2, or the coordinator's boundary system — each paired with a fresh
// engine and its symbolic plans.
// Steady-state value-refresh frames leave the counter unchanged — it is how
// tests and the contingency pool verify that a re-run paid zero symbolic
// cost. Safe to read between runs; reads concurrent with a run see a
// momentary value.
func (s *Session) SkeletonBuilds() int { return int(s.builds.Load()) }

// step2Start returns where subsystem si's next Step-2 solve starts. When
// the session carries a Step-2 solution — a later round, or a tracked frame
// — that is it. Otherwise the start is seeded from what this run already
// knows about the Step-2 network: own buses at the subsystem's Step-1 state
// (step1, on the Step-1 sub-network; matched by bus ID, the two networks
// order their buses independently), external buses at the incoming
// pseudo-measurement values, anything else at the flat profile. Valid only
// after step2 for this frame; the seed lives in the slot's warm2 buffer.
func (s *Session) step2Start(si int, step1 powerflow.State) []float64 {
	sl := &s.subs[si]
	sp := sl.step2
	if sl.haveWarm2 && len(sl.warm2) == sp.Model.NState() {
		return sl.warm2
	}
	if nb := sp.Net.N(); len(sl.seed.Vm) != nb {
		sl.seed = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	}
	st := sl.seed
	for i := range st.Vm {
		st.Vm[i], st.Va[i] = 1, sp.Model.RefAngle()
	}
	for _, id := range sp.OwnBuses {
		if l1, ok := sl.step1.Net.Index(id); ok {
			l2 := sp.Net.MustIndex(id)
			st.Vm[l2], st.Va[l2] = step1.Vm[l1], step1.Va[l1]
		}
	}
	for _, ps := range sp.pseudo {
		l2, v := sp.Net.MustIndex(int(ps.busID)), sp.Model.Meas[ps.mi].Value
		if ps.angle {
			st.Va[l2] = v
		} else {
			st.Vm[l2] = v
		}
	}
	// Packed as Model.StateToVec packs it, into warm2's own array.
	sl.warm2 = slices.Grow(sl.warm2[:0], sp.Model.NState())[:sp.Model.NState()]
	for i := range sl.warm2 {
		if b, angle := sp.Model.StateBus(i); angle {
			sl.warm2[i] = st.Va[b]
		} else {
			sl.warm2[i] = st.Vm[b]
		}
	}
	return sl.warm2
}

// step2Options returns the solver options of subsystem si's next Step-2
// solve under opts: opts.WLS started from step2Start behind
// wls.WarmStartGate, like every other warm start — or left alone when the
// caller fixed a start of its own or set noStep2WarmStart (flat).
func (s *Session) step2Options(si int, opts DSEOptions, step1 powerflow.State) wls.Options {
	w := opts.WLS
	if opts.noStep2WarmStart || w.X0 != nil {
		return w
	}
	w.X0 = s.step2Start(si, step1)
	if w.X0Gate == 0 {
		w.X0Gate = wls.WarmStartGate
	}
	return w
}

// intermediateWLS returns w as Step 1 and every Step-2 round but the last
// solve under it. Those solves only feed pseudo-measurements weighed at σp,
// the session's PseudoSigma, and warm starts, so they stop once
// ‖Δx‖∞ < max(Tol, σp/20), 1e-4 at the default σp: their
// pseudo-measurements are then off by a small fraction of their σ, and the
// last round, solved at Tol, weighs them as it weighs any. At σp/50 the
// final states sit closer to a run that solves every phase at Tol, but a
// 1 416-bus frame, whose late steps are about 1e-5, keeps most of its
// iterations (DESIGN §9).
func (s *Session) intermediateWLS(w wls.Options) wls.Options {
	tol := w.Tol
	if tol <= 0 {
		tol = wls.TolDefault
	}
	w.Tol = max(tol, s.cfg.pseudoSigma/20)
	return w
}

// noteStep2 records subsystem si's Step-2 solution as the next round's
// (or frame's) warm-start candidate — a copy: x goes to the caller, who may
// edit it in place.
func (s *Session) noteStep2(si int, x []float64) {
	sl := &s.subs[si]
	sl.warm2, sl.haveWarm2 = append(sl.warm2[:0], x...), true
}

// sessionFor returns the decomposition-owned session, creating or
// replacing it when absent or configured differently, locked for one run:
// the caller unlocks its mu.
func (d *Decomposition) sessionFor(opts DSEOptions) *Session {
	cfg := sessionConfigFor(opts)
	d.sessionMu.Lock()
	s := d.session
	if s == nil || s.cfg != cfg {
		s = NewSession(d, opts)
		d.session = s
	}
	d.sessionMu.Unlock()
	return lockOrClone(s, d, opts)
}

// lockOrClone locks s for one run, or hands out a fresh private session,
// locked, when s is serving a concurrent run. The caller unlocks the mu of
// the session it gets.
func lockOrClone(s *Session, d *Decomposition, opts DSEOptions) *Session {
	if s.mu.TryLock() {
		return s
	}
	eph := NewSession(d, opts)
	eph.mu.Lock()
	return eph
}

// refineBoundary is the coordinator's second stage: a WLS estimation on
// the boundary system (Decomposition.boundarySubsystem), anchored by the
// aggregated subsystem solutions as pseudo-measurements and constrained by
// the tie-line flow telemetry that no single balancing authority could use
// on its own. Refined boundary states are written back into state. Like a
// subsystem's skeletons, the boundary system is built once and
// value-refreshed by later frames.
func (s *Session) refineBoundary(ctx context.Context, global []meas.Measurement, state *powerflow.State, w wls.Options) error {
	d, sp := s.d, s.coord
	var sub *Subsystem
	if sp != nil {
		sub = sp.Sub
	} else if sub = d.boundarySubsystem(); sub == nil {
		return nil // no tie lines, nothing to refine
	}
	pkt := &s.coordIn[0]
	pkt.States = pkt.States[:0]
	for _, gi := range sub.Buses {
		pkt.States = append(pkt.States, BusState{BusID: d.Net.Buses[gi].ID, Vm: state.Vm[gi], Va: state.Va[gi]})
	}
	if sp == nil || sp.UpdateMeasurements(global) != nil || sp.UpdatePseudo(s.coordIn[:]) != nil {
		var err error
		if sp, err = d.build(sub, nil, global, s.coordIn[:], s.cfg.pseudoSigma); err != nil {
			return err
		}
		s.coord, s.coordEng = sp, wls.NewEngine(sp.Model)
		s.builds.Add(1)
	}
	res, err := s.coordEng.EstimateCtx(ctx, w)
	if err != nil {
		return err
	}
	sp.MergeInto(d, res.State, state)
	return nil
}
