package contingency

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// PoolOptions configures a what-if estimation pool.
type PoolOptions struct {
	// WLS configures every per-outage Gauss–Newton solve. The pool keeps its
	// engines across sweeps, so under the default wls.ReuseGain re-screens of
	// a quiescent system run whole what-if solves on the previous sweep's
	// gain and preconditioner numerics.
	WLS wls.Options
	// Decomposition, when set, switches the pool from centralized what-if
	// estimation (one wls.Engine per outage on the full network with the
	// branch out, all of them clones of one symbolic build) to distributed:
	// each outage gets a perturbed decomposition
	// (Decomposition.PerturbBranch) driven by a per-outage core.Tracker
	// whose pinned session carries skeletons and reuse anchors. The frame
	// must then satisfy RunDSE's PMU requirement — an angle measurement at
	// every subsystem reference bus of every perturbed decomposition (PMU
	// angles at all buses is the simple sufficient covering, since
	// connectivity repair can move reference buses on perturbed topologies).
	Decomposition *core.Decomposition
	// DSE configures the distributed runs (Decomposition mode only); each
	// pool entry's tracker pins its own session.
	DSE core.DSEOptions
	// SensitivityRadius is the boundary-sensitivity radius for perturbed
	// decompositions (0 selects 1, matching DecomposeOptions).
	SensitivityRadius int
	// Batch is accepted and ignored. It exists only because
	// benchmark/workload.go still sets it.
	Batch int
}

// CaseEstimate is one what-if estimation case: the screening verdict plus
// the full estimator output it was derived from. Violations hold AC flows
// (fromEnd.flow on the estimated post-outage state) rather than Screen's DC
// surrogates.
type CaseEstimate struct {
	Result
	// Estimate is the centralized per-outage WLS solution (nil for
	// islanding cases and in Decomposition mode).
	Estimate *wls.Result
	// DSE is the distributed per-outage solution (nil for islanding cases
	// and in centralized mode).
	DSE *core.DSEResult
}

// SweepStats aggregates one Pool.Screen sweep. The skeleton-build and
// reuse counters are what make the pool's economics observable: a repeat
// sweep over an unchanged contingency list reports SkeletonBuilds == 0 and
// a high skip fraction.
type SweepStats struct {
	// Cases, Islanding and Estimated count the sweep's outages: every case,
	// the ones that island (no estimation attempted), and the ones solved.
	Cases     int
	Islanding int
	Estimated int
	// SkeletonBuilds counts per-outage entries built this sweep: value-only
	// clones of the base skeleton (centralized; the skeleton itself, one per
	// topology and frame layout, is not counted) or perturbed decompositions
	// plus session subproblem/engine builds (distributed). Zero on a warm
	// re-screen.
	SkeletonBuilds int
	// WarmStarts counts cases whose Gauss–Newton started from the case's own
	// solution of the previous sweep (behind the wls.WarmStartGate residual
	// gate). A case built this sweep starts from the sweep's base-case
	// estimate behind the same gate and is not counted.
	WarmStarts int
	// GNIterations and CGIterations sum Gauss–Newton and inner PCG
	// iterations over all estimated cases, plus — here and in the counters
	// below — the one base-case solve of a centralized sweep that built
	// entries.
	GNIterations int
	CGIterations int
	// GainRefreshes/GainSkips/ReuseFallbacks aggregate the §10 drift-gated
	// reuse counters over all estimated cases, and PrecondFallbacks the LDLᵀ
	// breakdowns that ran on Jacobi. PrecondSkips always equals GainSkips
	// and stays only because benchmark/workload.go still reads it.
	GainRefreshes    int
	GainSkips        int
	PrecondSkips     int
	ReuseFallbacks   int
	PrecondFallbacks int
	// BatchedCases, BatchFallbacks, Reanchors, BatchMatVecs and
	// CompactedMatVecs are always zero. They exist only because
	// benchmark/workload.go still reads them.
	BatchedCases     int
	BatchFallbacks   int
	Reanchors        int
	BatchMatVecs     int
	CompactedMatVecs int
}

// add accumulates o into st.
func (st *SweepStats) add(o SweepStats) {
	st.Cases += o.Cases
	st.Islanding += o.Islanding
	st.Estimated += o.Estimated
	st.SkeletonBuilds += o.SkeletonBuilds
	st.WarmStarts += o.WarmStarts
	st.GNIterations += o.GNIterations
	st.CGIterations += o.CGIterations
	st.GainRefreshes += o.GainRefreshes
	st.GainSkips += o.GainSkips
	st.PrecondSkips += o.PrecondSkips
	st.ReuseFallbacks += o.ReuseFallbacks
	st.PrecondFallbacks += o.PrecondFallbacks
}

// Pool is a session pool for what-if re-screening: per outage it caches the
// perturbed-topology estimation stack together with the warm-start vector
// and drift-gated reuse anchors of the previous sweep. Centralized, the pool
// does the symbolic work once, on the base network (skeleton), and an
// outage's stack is a value-only clone of it: the base model with one
// branch's admittance taken out and that branch's flow rows weight-masked,
// under an engine that shares every index array and owns only values.
// Distributed, it is a perturbed core.Decomposition and a core.Tracker with
// its pinned session. The first sweep pays one analysis plus a numeric
// refresh per outage; every re-screen of the same contingency list across
// tracked frames is value-refresh + warm-start only.
//
// Invalidation: the skeleton and every entry are dropped when the base
// topology changes between sweeps (compared against a snapshot taken at
// pool creation) or, centralized, the frame's measurement layout drifts
// (the rebuilt entries are counted in SweepStats.SkeletonBuilds); entries
// are pruned when an outage leaves the requested case list.
//
// A Pool serves one Screen call at a time; concurrent calls serialize.
type Pool struct {
	base *grid.Network
	opts PoolOptions

	runMu sync.Mutex // serializes Screen sweeps and resets; guards sig, ends and skel
	mu    sync.Mutex // guards entries/builds within a sweep
	sig   *grid.Network
	// ends has the from-side flow constants of every in-service branch of
	// sig, resolved once per topology for the violation scan of every case.
	ends []fromEnd
	// skel is centralized mode's one symbolic build, nil until the first
	// sweep and after a Reset or a topology change. A sweep's workers only
	// read it.
	skel *skeleton
	// entries maps outage branch index -> cached per-contingency session.
	entries map[int]*caseSession
	builds  int // cumulative skeleton builds over the pool's lifetime
}

// frameFilter projects telemetry frames onto a network: everything but the
// flows metered on branches the network has out of service.
type frameFilter struct {
	net  *grid.Network
	keep []int32 // kept measurement index -> frame index
	// nFrame is the frame length the keep mapping was built against.
	nFrame  int
	scratch []meas.Measurement // the last frame's projection
}

// skeleton is the base-case estimation stack of a centralized pool: the
// model over the frame's projection onto the base network and the engine
// whose plans, gain pattern and LDLᵀ analysis every outage entry shares.
type skeleton struct {
	frameFilter
	mod  *meas.Model
	eng  *wls.Engine
	seed sweepSeed // of the frame last loaded
}

// sweepSeed is the base-case estimate of one frame, solved before the
// workers start by a sweep with a case that has no solution of its own yet:
// the start of every such case.
type sweepSeed struct {
	x     []float64 // nil when not solved, or the base case did not solve
	stats SweepStats
}

// caseSession is one outage's cached stack. During a sweep each case is
// touched by exactly one worker (outages are unique within a case list), so
// the fields need no lock of their own.
type caseSession struct {
	outage int

	// Centralized mode: a view of the skeleton's model and a clone of its
	// engine, the outaged branch's flow rows (masked, ascending) and the
	// case's last solution.
	mod      *meas.Model
	eng      *wls.Engine
	masked   []int
	warm     []float64
	haveWarm bool

	// Distributed mode.
	dec    *core.Decomposition
	trk    *core.Tracker
	filter frameFilter
}

// NewPool prepares a what-if estimation pool over the base network. In
// distributed mode (opts.Decomposition set) the base network is the
// decomposition's; n must then be the same network.
func NewPool(n *grid.Network, opts PoolOptions) (*Pool, error) {
	if opts.Decomposition != nil && opts.Decomposition.Net != n {
		return nil, fmt.Errorf("contingency: pool decomposition is over a different network")
	}
	p := &Pool{base: n, opts: opts, entries: make(map[int]*caseSession)}
	p.sign()
	return p, nil
}

// sign records the base network's topology as the one the pool's cached
// state is valid for.
func (p *Pool) sign() {
	p.sig = p.base.Clone()
	p.ends = make([]fromEnd, len(p.sig.Branches))
	for bi, br := range p.sig.Branches {
		if br.Status {
			p.ends[bi] = newFromEnd(p.sig, br)
		}
	}
}

// SkeletonBuilds reports the cumulative skeleton constructions over the
// pool's lifetime (see SweepStats.SkeletonBuilds for the per-sweep split).
func (p *Pool) SkeletonBuilds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds
}

// Reset drops the skeleton and every cached entry. The next sweep rebuilds
// from scratch.
func (p *Pool) Reset() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.skel = nil
	p.entries = make(map[int]*caseSession)
}

// ResetAnchors keeps the skeletons but drops every numeric carry — warm
// starts, drift-gated reuse anchors, cached preconditioners (centralized:
// Engine.ColdStart, which keeps the outage's masks; distributed:
// Tracker.Reset, which also drops the tracker's session skeletons since its
// warm layout dies with them). The next sweep re-anchors from the base-case
// estimate (centralized) or flat starts and full refreshes.
func (p *Pool) ResetAnchors() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	for _, e := range p.entries {
		if e.eng != nil {
			e.eng.ColdStart()
			e.warm, e.haveWarm = nil, false
		}
		if e.trk != nil {
			e.trk.Reset()
		}
	}
}

// Screen runs one what-if estimation sweep: for every requested outage it
// checks islanding, refreshes (or builds) the outage's cached estimation
// stack with the frame's values, re-estimates the post-outage state, and
// scans the estimated AC flows against ratings. cases lists outage branch
// indices (nil = every in-service branch, ascending); ratings may be nil to
// skip the violation scan, else one entry per branch (0 = unmonitored).
// Scheduling and the worker count come from opts, exactly as in
// ParallelScreen, and the error contract is the same: no partial results,
// lowest-indexed failing case wins deterministically, cancellation is
// checked per case.
func (p *Pool) Screen(ctx context.Context, frame []meas.Measurement, ratings []float64, cases []int, opts ParallelOptions) ([]CaseEstimate, SweepStats, error) {
	p.runMu.Lock()
	defer p.runMu.Unlock()

	if ratings != nil && len(ratings) != len(p.base.Branches) {
		return nil, SweepStats{}, fmt.Errorf("contingency: %d ratings for %d branches", len(ratings), len(p.base.Branches))
	}
	threshold := opts.LoadingThreshold
	if threshold <= 0 {
		threshold = 1.0
	}

	if cases == nil {
		for bi, br := range p.base.Branches {
			if br.Status {
				cases = append(cases, bi)
			}
		}
	} else {
		seen := make(map[int]bool, len(cases))
		for _, out := range cases {
			if out < 0 || out >= len(p.base.Branches) {
				return nil, SweepStats{}, fmt.Errorf("contingency: outage %d out of range [0,%d)", out, len(p.base.Branches))
			}
			if !p.base.Branches[out].Status {
				return nil, SweepStats{}, fmt.Errorf("contingency: outage %d is already out of service", out)
			}
			if seen[out] {
				return nil, SweepStats{}, fmt.Errorf("contingency: outage %d listed twice", out)
			}
			seen[out] = true
		}
	}

	p.invalidate(cases)
	chk := newIslandChecker(p.base)
	islanding := make([]bool, len(cases))
	for k, out := range cases {
		islanding[k] = chk.islands(out)
	}
	if p.opts.Decomposition == nil {
		if err := p.loadFrame(frame); err != nil {
			return nil, SweepStats{}, err
		}
		if p.needsSeed(cases, islanding) {
			p.skel.solveSeed(ctx, p.opts.WLS)
		}
	}

	results := make([]CaseEstimate, len(cases))
	perCase := make([]SweepStats, len(cases))
	err := schedule(ctx, len(cases), opts.Workers, opts.Scheduling, func(k int) error {
		out := cases[k]
		ce := CaseEstimate{Result: Result{Outage: out}}
		st := &perCase[k]
		st.Cases = 1
		if islanding[k] {
			ce.Islanding = true
			st.Islanding = 1
			results[k] = ce
			return nil
		}
		if err := p.runCase(ctx, out, frame, &ce, st); err != nil {
			return fmt.Errorf("contingency: outage %d: %w", out, err)
		}
		st.Estimated = 1
		if ratings != nil {
			ce.Violations = p.acViolations(out, estimatedState(&ce), ratings, threshold)
		}
		results[k] = ce
		return nil
	})
	if err != nil {
		return nil, SweepStats{}, err
	}

	var stats SweepStats
	for _, st := range perCase {
		stats.add(st)
	}
	if p.skel != nil {
		stats.add(p.skel.seed.stats)
	}
	p.mu.Lock()
	p.builds += stats.SkeletonBuilds
	p.mu.Unlock()
	return results, stats, nil
}

// invalidate applies the pool's two invalidation rules before a sweep:
// drop everything when the base topology changed since the last snapshot,
// and prune entries whose outage left the requested case list.
func (p *Pool) invalidate(cases []int) {
	if !sameTopology(p.base, p.sig) {
		p.skel = nil
		p.entries = make(map[int]*caseSession)
		p.sign()
		return
	}
	want := make(map[int]bool, len(cases))
	for _, out := range cases {
		want[out] = true
	}
	for out := range p.entries {
		if !want[out] {
			delete(p.entries, out)
		}
	}
}

// loadFrame folds the frame into the centralized skeleton, values only:
// one projection and one UpdateValues per sweep, which every entry sees
// through the measurement slice it shares. A first frame, or one whose
// layout drifted past what UpdateValues accepts, builds the skeleton anew
// and drops the entries cloned from the old one.
func (p *Pool) loadFrame(frame []meas.Measurement) error {
	if sk := p.skel; sk != nil {
		sk.project(frame)
		err := sk.mod.UpdateValues(sk.scratch)
		if err == nil {
			sk.mod.SetRefAngle(refAngleFrom(sk.scratch, p.base.Buses[sk.mod.RefBus()].ID))
			sk.seed = sweepSeed{}
			return nil
		}
		if errors.Is(err, meas.ErrBadMeasurement) {
			return fmt.Errorf("contingency: base case: %w", err) // a bad frame, not a new layout
		}
	}
	p.skel = nil
	p.entries = make(map[int]*caseSession)
	sk := &skeleton{frameFilter: frameFilter{net: p.base}}
	sk.rebuild(frame)
	ms := append([]meas.Measurement(nil), sk.scratch...)
	ref := p.base.SlackIndex()
	mod, err := meas.NewModel(p.base, ms, ref, refAngleFrom(ms, p.base.Buses[ref].ID))
	if err != nil {
		return fmt.Errorf("contingency: base case: %w", err)
	}
	sk.mod, sk.eng = mod, wls.NewEngine(mod)
	p.skel = sk
	return nil
}

// needsSeed reports whether the sweep estimates a case with no solution of
// its own to start from: a non-islanding outage with no entry yet, or one
// whose carry ResetAnchors dropped.
func (p *Pool) needsSeed(cases []int, islanding []bool) bool {
	for k, out := range cases {
		if e := p.entries[out]; !islanding[k] && (e == nil || !e.haveWarm) {
			return true
		}
	}
	return false
}

// solveSeed runs the base-case estimate of the loaded frame on the
// skeleton's engine, flat start and exact Gauss–Newton, so the seed depends
// on the frame alone. It also leaves the engine factored, so every clone
// made in the sweep shares the LDLᵀ analysis. A base case that does not
// solve leaves no seed, and the cases start flat and report for themselves.
func (sk *skeleton) solveSeed(ctx context.Context, wopts wls.Options) {
	wopts.GainReuse = wls.ReuseOff
	res, err := sk.eng.EstimateCtx(ctx, wopts)
	if err != nil {
		return
	}
	sk.seed.x = res.X
	sk.seed.stats.addResult(res)
}

// runCase estimates one non-islanding outage, building or refreshing its
// cached stack.
func (p *Pool) runCase(ctx context.Context, out int, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	p.mu.Lock()
	e := p.entries[out]
	p.mu.Unlock()

	if p.opts.Decomposition != nil {
		return p.runDistributed(ctx, out, e, frame, ce, st)
	}
	return p.runCentralized(ctx, out, e, ce, st)
}

func (p *Pool) runCentralized(ctx context.Context, out int, e *caseSession, ce *CaseEstimate, st *SweepStats) error {
	sk := p.skel
	if e == nil {
		var err error
		if e, err = sk.outage(out); err != nil {
			return err
		}
		st.SkeletonBuilds++
		p.mu.Lock()
		p.entries[out] = e
		p.mu.Unlock()
	}
	e.mod.SetRefAngle(sk.mod.RefAngle())

	wopts := p.opts.WLS
	if wopts.X0 == nil {
		if e.haveWarm {
			wopts.X0 = e.warm
			st.WarmStarts++
		} else {
			wopts.X0 = sk.seed.x
		}
		if wopts.X0 != nil && wopts.X0Gate == 0 {
			wopts.X0Gate = wls.WarmStartGate
		}
	}
	res, err := e.eng.EstimateCtx(ctx, wopts)
	if err != nil {
		return err
	}
	// A copy: res.X goes to the caller, who may edit it in place.
	e.warm, e.haveWarm = append(e.warm[:0], res.X...), true
	// The masked rows are not the case's measurements: without them m − n,
	// and J (their weight is zero), read as on the outaged network's own set.
	res.Residuals = dropRows(res.Residuals, e.masked)
	ce.Estimate = res
	st.addResult(res)
	return nil
}

// addResult accumulates one solve's counters.
func (st *SweepStats) addResult(res *wls.Result) {
	st.GNIterations += res.Iterations
	st.CGIterations += res.CGIterations
	st.GainRefreshes += res.GainRefreshes
	st.GainSkips += res.GainSkips
	st.PrecondSkips += res.PrecondSkips
	st.ReuseFallbacks += res.ReuseFallbacks
	st.PrecondFallbacks += res.PrecondFallbacks
}

// outage clones the skeleton for one outage: the model view with the
// branch's admittance out, an engine on the shared plans, and the branch's
// own flow rows masked.
func (sk *skeleton) outage(out int) (*caseSession, error) {
	mod, err := sk.mod.WithoutBranch(out)
	if err != nil {
		return nil, err
	}
	eng, err := sk.eng.CloneFor(mod)
	if err != nil {
		return nil, err
	}
	e := &caseSession{outage: out, mod: mod, eng: eng}
	for i, m := range mod.Meas {
		if (m.Kind == meas.Pflow || m.Kind == meas.Qflow) && m.Branch == out {
			if err := eng.MaskMeasurement(i); err != nil {
				return nil, err
			}
			e.masked = append(e.masked, i)
		}
	}
	return e, nil
}

// dropRows removes the given ascending rows from r in place.
func dropRows(r []float64, rows []int) []float64 {
	if len(rows) == 0 {
		return r
	}
	w := rows[0]
	for i := rows[0]; i < len(r); i++ {
		if len(rows) > 0 && rows[0] == i {
			rows = rows[1:]
			continue
		}
		r[w] = r[i]
		w++
	}
	return r[:w]
}

func (p *Pool) runDistributed(ctx context.Context, out int, e *caseSession, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	if e == nil {
		dec, err := p.opts.Decomposition.PerturbBranch(out, p.opts.SensitivityRadius)
		if err != nil {
			return err
		}
		e = &caseSession{outage: out, dec: dec, trk: core.NewTracker(dec, p.opts.DSE), filter: frameFilter{net: dec.Net}}
		st.SkeletonBuilds++
		p.mu.Lock()
		p.entries[out] = e
		p.mu.Unlock()
	}
	e.filter.project(frame)
	if e.trk.Frames > 0 {
		st.WarmStarts++
	}
	b0 := e.trk.SkeletonBuilds()
	res, err := e.trk.Step(ctx, e.filter.scratch)
	st.SkeletonBuilds += e.trk.SkeletonBuilds() - b0
	if err != nil {
		return err
	}
	ce.DSE = res
	st.GNIterations += res.Step1Stats.Iterations + res.Step2Stats.Iterations
	st.CGIterations += res.Step1Stats.CGIterations + res.Step2Stats.CGIterations
	st.GainRefreshes += res.Step1Stats.GainRefreshes + res.Step2Stats.GainRefreshes
	st.GainSkips += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips
	st.PrecondSkips += res.Step1Stats.PrecondSkips + res.Step2Stats.PrecondSkips
	st.ReuseFallbacks += res.Step1Stats.ReuseFallbacks + res.Step2Stats.ReuseFallbacks
	st.PrecondFallbacks += res.Step1Stats.PrecondFallbacks + res.Step2Stats.PrecondFallbacks
	return nil
}

// drops reports whether a frame measurement cannot exist on the filter's
// network: a flow on a branch that is out of service there (or unknown).
func (f *frameFilter) drops(m meas.Measurement) bool {
	if m.Kind != meas.Pflow && m.Kind != meas.Qflow {
		return false
	}
	return m.Branch < 0 || m.Branch >= len(f.net.Branches) || !f.net.Branches[m.Branch].Status
}

// rebuild recomputes the kept-measurement mapping (everything the network
// can carry) and fills scratch with the kept subset.
func (f *frameFilter) rebuild(frame []meas.Measurement) {
	f.keep = f.keep[:0]
	f.scratch = f.scratch[:0]
	for fi, m := range frame {
		if f.drops(m) {
			continue
		}
		f.keep = append(f.keep, int32(fi))
		f.scratch = append(f.scratch, m)
	}
	f.nFrame = len(frame)
}

// project refills scratch with the frame projected onto the network,
// reusing the kept-index mapping while the frame layout holds.
func (f *frameFilter) project(frame []meas.Measurement) {
	if len(frame) != f.nFrame || len(f.keep) == 0 {
		f.rebuild(frame)
		return
	}
	dropped := 0
	for _, m := range frame {
		if f.drops(m) {
			dropped++
		}
	}
	if len(f.keep)+dropped != len(frame) {
		f.rebuild(frame)
		return
	}
	f.scratch = f.scratch[:0]
	for _, fi := range f.keep {
		m := frame[fi]
		if f.drops(m) {
			f.rebuild(frame)
			return
		}
		f.scratch = append(f.scratch, m)
	}
}

// refAngleFrom returns the telemetered PMU angle at the reference bus, or 0
// when the frame carries none (the estimator then pins the reference to 0,
// which only shifts the angle profile).
func refAngleFrom(ms []meas.Measurement, refID int) float64 {
	for _, m := range ms {
		if m.Kind == meas.Angle && m.Bus == refID {
			return m.Value
		}
	}
	return 0
}

// estimatedState returns the case's estimated post-outage operating point.
func estimatedState(ce *CaseEstimate) powerflow.State {
	if ce.Estimate != nil {
		return ce.Estimate.State
	}
	return ce.DSE.State
}

// fromEnd is the from-side AC active-power flow of one branch with
// everything a state does not change resolved: the two bus indices and the
// measurement layer's two-port constants (meas.EndAdmittance, the model its
// Pflow evaluation uses). The zero value, a branch with no impedance, flows
// nothing.
type fromEnd struct {
	f, t          int
	gff, gft, bft float64
}

func newFromEnd(n *grid.Network, br grid.Branch) fromEnd {
	if br.R == 0 && br.X == 0 {
		return fromEnd{}
	}
	e := fromEnd{f: n.MustIndex(br.From), t: n.MustIndex(br.To)}
	e.gff, _, e.gft, e.bft = meas.EndAdmittance(br, true)
	return e
}

// flow evaluates the flow (pu) from a voltage state — the AC counterpart of
// dcBranchFlow used by the what-if estimation screen.
func (e *fromEnd) flow(st powerflow.State) float64 {
	vf, vt := st.Vm[e.f], st.Vm[e.t]
	s, c := math.Sincos(st.Va[e.f] - st.Va[e.t])
	return vf*vf*e.gff + vf*vt*(e.gft*c+e.bft*s)
}

// acViolations scans the estimated post-outage AC flows for overloaded
// monitored branches, the what-if analogue of dcViolations.
func (p *Pool) acViolations(out int, st powerflow.State, ratings []float64, threshold float64) []Violation {
	var vs []Violation
	for bi, br := range p.base.Branches {
		if !br.Status || bi == out || ratings[bi] <= 0 {
			continue
		}
		f := p.ends[bi].flow(st)
		if loading := math.Abs(f) / ratings[bi]; loading >= threshold {
			vs = append(vs, Violation{Branch: bi, Flow: f, Rating: ratings[bi], Loading: loading})
		}
	}
	return vs
}

// sameTopology reports whether two networks describe the same topology and
// admittance-relevant parameters — the invalidation predicate for pooled
// entries (voltage profile fields are irrelevant: they never enter a
// skeleton).
func sameTopology(a, b *grid.Network) bool {
	if a.N() != b.N() || len(a.Branches) != len(b.Branches) || a.BaseMVA != b.BaseMVA {
		return false
	}
	for i := range a.Buses {
		ba, bb := a.Buses[i], b.Buses[i]
		if ba.ID != bb.ID || ba.Type != bb.Type || ba.Gs != bb.Gs || ba.Bs != bb.Bs {
			return false
		}
	}
	for i := range a.Branches {
		ba, bb := a.Branches[i], b.Branches[i]
		if ba.From != bb.From || ba.To != bb.To || ba.Status != bb.Status ||
			ba.R != bb.R || ba.X != bb.X || ba.B != bb.B || ba.Tap != bb.Tap || ba.Shift != bb.Shift {
			return false
		}
	}
	return true
}
