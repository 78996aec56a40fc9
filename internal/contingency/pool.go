package contingency

import (
	"context"
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
	// engines across sweeps, so GainReuse left at ReuseAuto runs as
	// wls.ReuseGain: re-screens of a quiescent system run whole what-if
	// solves on the previous sweep's gain and preconditioner numerics.
	WLS wls.Options
	// Decomposition, when set, switches the pool from centralized what-if
	// estimation (one wls.Engine per outage on the full perturbed network)
	// to distributed: each outage gets a perturbed decomposition
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
// (acBranchFlow on the estimated post-outage state) rather than Screen's DC
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
	// SkeletonBuilds counts symbolic constructions this sweep: perturbed
	// networks with their measurement models and engine plans (centralized)
	// or perturbed decompositions plus session subproblem/engine builds
	// (distributed). Zero on a warm re-screen.
	SkeletonBuilds int
	// WarmStarts counts cases whose Gauss–Newton started from the previous
	// sweep's solution (behind the wls.WarmStartGate residual gate).
	WarmStarts int
	// GNIterations and CGIterations sum Gauss–Newton and inner PCG
	// iterations over all estimated cases.
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
// perturbed-topology estimation stack — centralized: the outaged network
// clone, its measurement model, and a wls.Engine with all symbolic plans;
// distributed: a perturbed core.Decomposition and a core.Tracker with its
// pinned session — together with the warm-start vector and drift-gated
// reuse anchors of the previous sweep. The first sweep pays the skeleton
// and symbolic cost once per outage; every re-screen of the same
// contingency list across tracked frames is value-refresh + warm-start
// only.
//
// Invalidation: entries are dropped when the base topology changes between
// sweeps (compared against a snapshot taken at pool creation) and pruned
// when an outage leaves the requested case list. A frame whose measurement
// layout drifts rebuilds just the affected entries (counted in
// SweepStats.SkeletonBuilds).
//
// A Pool serves one Screen call at a time; concurrent calls serialize.
type Pool struct {
	base *grid.Network
	opts PoolOptions

	runMu sync.Mutex // serializes Screen sweeps
	mu    sync.Mutex // guards entries/sig/builds within a sweep
	sig   *grid.Network
	// entries maps outage branch index -> cached per-contingency session.
	entries map[int]*caseSession
	builds  int // cumulative skeleton builds over the pool's lifetime
}

// caseSession is one outage's cached stack. During a sweep each case is
// touched by exactly one worker (outages are unique within a case list), so
// the fields need no lock of their own.
type caseSession struct {
	outage int

	// Centralized mode.
	net  *grid.Network
	mod  *meas.Model
	eng  *wls.Engine
	keep []int32 // model measurement index -> frame index
	// nGlobal is the frame length the keep mapping was built against.
	nGlobal  int
	scratch  []meas.Measurement
	warm     []float64
	haveWarm bool

	// Distributed mode.
	dec *core.Decomposition
	trk *core.Tracker
}

// NewPool prepares a what-if estimation pool over the base network. In
// distributed mode (opts.Decomposition set) the base network is the
// decomposition's; n must then be the same network.
func NewPool(n *grid.Network, opts PoolOptions) (*Pool, error) {
	if opts.Decomposition != nil && opts.Decomposition.Net != n {
		return nil, fmt.Errorf("contingency: pool decomposition is over a different network")
	}
	return &Pool{
		base:    n,
		opts:    opts,
		sig:     n.Clone(),
		entries: make(map[int]*caseSession),
	}, nil
}

// SkeletonBuilds reports the cumulative skeleton constructions over the
// pool's lifetime (see SweepStats.SkeletonBuilds for the per-sweep split).
func (p *Pool) SkeletonBuilds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds
}

// Reset drops every cached entry. The next sweep rebuilds from scratch.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[int]*caseSession)
}

// ResetAnchors keeps the skeletons but drops every numeric carry — warm
// starts, drift-gated reuse anchors, cached preconditioners (centralized:
// Engine.ColdStart; distributed: Tracker.Reset, which also drops the
// tracker's session skeletons since its warm layout dies with them). The
// next sweep re-anchors from flat starts and full refreshes.
func (p *Pool) ResetAnchors() {
	p.mu.Lock()
	defer p.mu.Unlock()
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

	results := make([]CaseEstimate, len(cases))
	perCase := make([]SweepStats, len(cases))
	chk := newIslandChecker(p.base)
	err := schedule(ctx, len(cases), opts.Workers, opts.Scheduling, func(k int) error {
		out := cases[k]
		ce := CaseEstimate{Result: Result{Outage: out}}
		st := &perCase[k]
		st.Cases = 1
		if chk.islands(out) {
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
	p.mu.Lock()
	p.builds += stats.SkeletonBuilds
	p.mu.Unlock()
	return results, stats, nil
}

// invalidate applies the pool's two invalidation rules before a sweep:
// drop everything when the base topology changed since the last snapshot,
// and prune entries whose outage left the requested case list.
func (p *Pool) invalidate(cases []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !sameTopology(p.base, p.sig) {
		p.entries = make(map[int]*caseSession)
		p.sig = p.base.Clone()
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

// runCase estimates one non-islanding outage, building or refreshing its
// cached stack.
func (p *Pool) runCase(ctx context.Context, out int, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	p.mu.Lock()
	e := p.entries[out]
	p.mu.Unlock()

	if p.opts.Decomposition != nil {
		return p.runDistributed(ctx, out, e, frame, ce, st)
	}
	return p.runCentralized(ctx, out, e, frame, ce, st)
}

func (p *Pool) runCentralized(ctx context.Context, out int, e *caseSession, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	if e != nil && !e.refreshCentralized(frame) {
		e = nil // layout drift: rebuild below
	}
	if e == nil {
		var err error
		if e, err = p.buildCentralized(out, frame); err != nil {
			return err
		}
		st.SkeletonBuilds++
		p.mu.Lock()
		p.entries[out] = e
		p.mu.Unlock()
	}

	wopts := p.opts.WLS
	if wopts.GainReuse == wls.ReuseAuto {
		wopts.GainReuse = wls.ReuseGain
	}
	if e.haveWarm && len(e.warm) == e.mod.NState() && wopts.X0 == nil {
		wopts.X0 = e.warm
		if wopts.X0Gate == 0 {
			wopts.X0Gate = wls.WarmStartGate
		}
		st.WarmStarts++
	}
	res, err := e.eng.EstimateCtx(ctx, wopts)
	if err != nil {
		return err
	}
	// A copy: res.X goes to the caller, who may edit it in place.
	e.warm, e.haveWarm = append(e.warm[:0], res.X...), true
	ce.Estimate = res
	st.GNIterations += res.Iterations
	st.CGIterations += res.CGIterations
	st.GainRefreshes += res.GainRefreshes
	st.GainSkips += res.GainSkips
	st.PrecondSkips += res.PrecondSkips
	st.ReuseFallbacks += res.ReuseFallbacks
	st.PrecondFallbacks += res.PrecondFallbacks
	return nil
}

func (p *Pool) runDistributed(ctx context.Context, out int, e *caseSession, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	if e == nil {
		dec, err := p.opts.Decomposition.PerturbBranch(out, p.opts.SensitivityRadius)
		if err != nil {
			return err
		}
		e = &caseSession{outage: out, net: dec.Net, dec: dec, trk: core.NewTracker(dec, p.opts.DSE)}
		st.SkeletonBuilds++
		p.mu.Lock()
		p.entries[out] = e
		p.mu.Unlock()
	}
	e.filterFrame(frame)
	if e.trk.Frames > 0 {
		st.WarmStarts++
	}
	b0 := e.trk.SkeletonBuilds()
	res, err := e.trk.Step(ctx, e.scratch)
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

// buildCentralized constructs an outage's centralized stack: the perturbed
// network, the frame filtered of measurements on the outaged branch, the
// measurement model over the perturbed topology, and a fresh engine with
// its symbolic plans.
func (p *Pool) buildCentralized(out int, frame []meas.Measurement) (*caseSession, error) {
	pnet := p.base.Clone()
	pnet.Branches[out].Status = false
	e := &caseSession{outage: out, net: pnet}
	e.rebuildKeep(frame)
	ms := append([]meas.Measurement(nil), e.scratch...)
	ref := pnet.SlackIndex()
	mod, err := meas.NewModel(pnet, ms, ref, refAngleFrom(ms, pnet.Buses[ref].ID))
	if err != nil {
		return nil, err
	}
	e.mod, e.eng = mod, wls.NewEngine(mod)
	return e, nil
}

// dropMeas reports whether a frame measurement cannot exist on the
// perturbed topology: a flow on the outaged branch or on any branch that is
// out of service in the base case.
func (e *caseSession) dropMeas(m meas.Measurement) bool {
	if m.Kind != meas.Pflow && m.Kind != meas.Qflow {
		return false
	}
	return m.Branch < 0 || m.Branch >= len(e.net.Branches) || !e.net.Branches[m.Branch].Status
}

// rebuildKeep recomputes the kept-measurement mapping (everything the
// perturbed topology can carry) and fills scratch with the kept subset.
func (e *caseSession) rebuildKeep(frame []meas.Measurement) {
	e.keep = e.keep[:0]
	e.scratch = e.scratch[:0]
	for fi, m := range frame {
		if e.dropMeas(m) {
			continue
		}
		e.keep = append(e.keep, int32(fi))
		e.scratch = append(e.scratch, m)
	}
	e.nGlobal = len(frame)
}

// filterFrame refills scratch with the frame projected onto the perturbed
// topology (distributed mode's per-sweep frame projection), reusing the
// kept-index mapping while the frame layout holds.
func (e *caseSession) filterFrame(frame []meas.Measurement) {
	if len(frame) != e.nGlobal || len(e.keep) == 0 {
		e.rebuildKeep(frame)
		return
	}
	dropped := 0
	for _, m := range frame {
		if e.dropMeas(m) {
			dropped++
		}
	}
	if len(e.keep)+dropped != len(frame) {
		e.rebuildKeep(frame)
		return
	}
	e.scratch = e.scratch[:0]
	for _, fi := range e.keep {
		m := frame[fi]
		if e.dropMeas(m) {
			e.rebuildKeep(frame)
			return
		}
		e.scratch = append(e.scratch, m)
	}
}

// refreshCentralized folds a new frame into the cached model, values only.
// It reports false when the frame layout drifted past what UpdateValues
// accepts — the caller then rebuilds the entry.
func (e *caseSession) refreshCentralized(frame []meas.Measurement) bool {
	if len(frame) != e.nGlobal {
		return false
	}
	e.scratch = e.scratch[:0]
	for _, fi := range e.keep {
		e.scratch = append(e.scratch, frame[fi])
	}
	if len(e.scratch) != len(e.mod.Meas) {
		return false
	}
	if err := e.mod.UpdateValues(e.scratch); err != nil {
		return false
	}
	e.mod.SetRefAngle(refAngleFrom(e.scratch, e.net.Buses[e.mod.RefBus()].ID))
	return true
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

// acViolations scans the estimated post-outage AC flows for overloaded
// monitored branches, the what-if analogue of dcViolations.
func (p *Pool) acViolations(out int, st powerflow.State, ratings []float64, threshold float64) []Violation {
	var vs []Violation
	for bi, br := range p.base.Branches {
		if !br.Status || bi == out || ratings[bi] <= 0 {
			continue
		}
		f := acBranchFlow(p.base, st, br)
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
