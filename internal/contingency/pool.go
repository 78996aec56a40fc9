package contingency

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

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
	// Estimate is the per-outage WLS solution (nil for islanding cases).
	Estimate *wls.Result
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
	// clones of the base skeleton (the skeleton itself, one per topology and
	// frame layout, is not counted). Zero on a warm re-screen.
	SkeletonBuilds int
	// WarmStarts counts cases whose Gauss–Newton started from the case's own
	// solution of the previous sweep (behind the wls.WarmStartGate residual
	// gate). A case built this sweep starts from the sweep's base-case
	// estimate behind the same gate and is not counted.
	WarmStarts int
	// Counters sums the solves of every estimated case, plus the one
	// base-case solve of a sweep that seeded new or reset cases.
	wls.Counters
	// GNIterations mirrors Counters.Iterations. It exists only because
	// benchmark/workload.go still reads it.
	GNIterations int
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
	st.Add(o.Counters)
}

// Pool is a session pool for what-if re-screening: per outage it caches the
// perturbed-topology estimation stack together with the warm-start vector
// and drift-gated reuse anchors of the previous sweep. The pool does the
// symbolic work once, on the base network (skeleton), and an outage's stack
// is a value-only clone of it: the base model with one branch's admittance
// taken out and that branch's flow rows weight-masked, under an engine that
// shares every index array and owns only values. The first sweep pays one
// analysis plus a numeric refresh per outage; every re-screen of the same
// contingency list across tracked frames is value-refresh + warm-start
// only.
//
// Invalidation: the skeleton and every entry are dropped when the base
// topology changes between sweeps (compared against a snapshot taken at
// pool creation) or the frame's measurement layout drifts (the rebuilt
// entries are counted in SweepStats.SkeletonBuilds); entries are pruned
// when an outage leaves the requested case list.
//
// A Pool serves one Screen call at a time; concurrent calls serialize.
type Pool struct {
	base *grid.Network
	opts PoolOptions

	runMu sync.Mutex // serializes Screen sweeps and resets; guards everything but entries and builds
	mu    sync.Mutex // guards entries/builds within a sweep
	sig   *grid.Network
	// ends has the from-side flow constants of every in-service branch of
	// sig, resolved once per topology for the violation scan of every case.
	ends []fromEnd
	// bridge says, by branch index, which in-service branches of sig island
	// when taken out (bridges), and all lists every in-service branch of
	// sig, ascending: the case list a sweep given none screens. Both are
	// derived once per topology.
	bridge []bool
	all    []int
	// The sweep scratch, refilled by every sweep: listed marks by branch
	// index the outages of the sweep's case list, and perCase holds each
	// case's stats.
	listed  []bool
	perCase []SweepStats
	// skel is the pool's one symbolic build, nil until the first sweep and
	// after a Reset or a topology change. A sweep's workers only read it.
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

// skeleton is the base-case estimation stack of a pool: the model over the
// frame's projection onto the base network and the engine whose plans, gain
// pattern and LDLᵀ analysis every outage entry shares.
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
	x        []float64 // nil when not solved, or the base case did not solve
	counters wls.Counters
}

// caseSession is one outage's cached stack: a view of the skeleton's model
// and a clone of its engine, the outaged branch's flow rows (masked,
// ascending) and the case's last solution. During a sweep each case is
// touched by exactly one worker (outages are unique within a case list), so
// the fields need no lock of their own.
type caseSession struct {
	outage   int
	mod      *meas.Model
	eng      *wls.Engine
	masked   []int
	warm     []float64
	haveWarm bool
}

// NewPool prepares a what-if estimation pool over the base network.
func NewPool(n *grid.Network, opts PoolOptions) (*Pool, error) {
	p := &Pool{base: n, opts: opts, entries: make(map[int]*caseSession)}
	p.sign()
	return p, nil
}

// sign records the base network's topology as the one the pool's cached
// state is valid for, with what a sweep reads of it: every in-service
// branch's flow constants and islanding verdict, and the default case list.
func (p *Pool) sign() {
	p.sig = p.base.Clone()
	p.ends = make([]fromEnd, len(p.sig.Branches))
	p.bridge = bridges(p.sig)
	p.all = p.all[:0]
	for bi, br := range p.sig.Branches {
		if br.Status {
			p.ends[bi] = newFromEnd(p.sig, br)
			p.all = append(p.all, bi)
		}
	}
	p.listed = make([]bool, len(p.sig.Branches))
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
// starts, drift-gated reuse anchors, cached preconditioners
// (Engine.ColdStart, which keeps the outage's masks). The next sweep
// re-anchors from the base-case estimate.
func (p *Pool) ResetAnchors() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	for _, e := range p.entries {
		e.eng.ColdStart()
		e.warm, e.haveWarm = nil, false
	}
}

// Screen runs one what-if estimation sweep: for every requested outage it
// checks islanding, refreshes (or builds) the outage's cached estimation
// stack with the frame's values, re-estimates the post-outage state, and
// scans the estimated AC flows against ratings. cases lists outage branch
// indices (nil = every in-service branch, ascending); ratings may be nil to
// skip the violation scan, else one entry per branch (0 = unmonitored).
// The worker count comes from opts, exactly as in ParallelScreen, and the
// error contract is the same: no partial results, lowest-indexed failing
// case wins deterministically, cancellation is checked per case.
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

	if !sameTopology(p.base, p.sig) {
		p.skel = nil
		p.entries = make(map[int]*caseSession)
		p.sign()
	}
	if cases == nil {
		cases = p.all
	} else if err := p.checkCases(cases); err != nil {
		return nil, SweepStats{}, err
	}
	p.prune(cases)
	if err := p.loadFrame(frame); err != nil {
		return nil, SweepStats{}, err
	}
	if p.needsSeed(cases) {
		p.skel.solveSeed(ctx, p.opts.WLS)
	}

	results := make([]CaseEstimate, len(cases))
	if cap(p.perCase) < len(cases) {
		p.perCase = make([]SweepStats, len(cases))
	}
	perCase := p.perCase[:len(cases)]
	clear(perCase)
	err := schedule(ctx, len(cases), opts.Workers, func(k int) error {
		out := cases[k]
		ce := CaseEstimate{Result: Result{Outage: out}}
		st := &perCase[k]
		st.Cases = 1
		if p.bridge[out] {
			ce.Islanding = true
			st.Islanding = 1
			results[k] = ce
			return nil
		}
		if err := p.runCase(ctx, out, &ce, st); err != nil {
			return fmt.Errorf("contingency: outage %d: %w", out, err)
		}
		st.Estimated = 1
		if ratings != nil {
			ce.Violations = p.acViolations(out, ce.Estimate.State, ratings, threshold)
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
	stats.Add(p.skel.seed.counters)
	stats.GNIterations = stats.Iterations
	p.mu.Lock()
	p.builds += stats.SkeletonBuilds
	p.mu.Unlock()
	return results, stats, nil
}

// checkCases rejects a case list with an outage out of range, out of
// service, or listed twice.
func (p *Pool) checkCases(cases []int) error {
	defer clear(p.listed)
	for _, out := range cases {
		if out < 0 || out >= len(p.base.Branches) {
			return fmt.Errorf("contingency: outage %d out of range [0,%d)", out, len(p.base.Branches))
		}
		if !p.base.Branches[out].Status {
			return fmt.Errorf("contingency: outage %d is already out of service", out)
		}
		if p.listed[out] {
			return fmt.Errorf("contingency: outage %d listed twice", out)
		}
		p.listed[out] = true
	}
	return nil
}

// prune drops the entries whose outage left the case list.
func (p *Pool) prune(cases []int) {
	defer clear(p.listed)
	for _, out := range cases {
		p.listed[out] = true
	}
	for out := range p.entries {
		if !p.listed[out] {
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
func (p *Pool) needsSeed(cases []int) bool {
	for _, out := range cases {
		if e := p.entries[out]; !p.bridge[out] && (e == nil || !e.haveWarm) {
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
	sk.seed.counters = res.Counters
}

// runCase estimates one non-islanding outage, building or refreshing its
// cached stack.
func (p *Pool) runCase(ctx context.Context, out int, ce *CaseEstimate, st *SweepStats) error {
	p.mu.Lock()
	e := p.entries[out]
	p.mu.Unlock()

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
	st.Add(res.Counters)
	return nil
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
