package contingency

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// PoolOptions configures a what-if estimation pool.
type PoolOptions struct {
	// WLS configures every per-outage Gauss–Newton solve. GainReuse left at
	// ReuseAuto resolves to the tracking tier (wls.ReuseGain): re-screens of
	// a quiescent system run whole what-if solves on the previous sweep's
	// gain and preconditioner numerics.
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
	// DSE configures the distributed runs (Decomposition mode only). Cache
	// is ignored: each pool entry pins its own tracker session.
	DSE core.DSEOptions
	// SensitivityRadius is the boundary-sensitivity radius for perturbed
	// decompositions (0 selects 1, matching DecomposeOptions).
	SensitivityRadius int
	// Batch, when ≥ 2, groups up to Batch non-islanding cases per batched
	// multi-RHS gain solve (wls.BatchEngine): the sweep anchors a shared
	// base-topology gain operator once per frame and each batch runs all
	// its lagged Gauss–Newton steps through one pass over the operator's
	// nonzeros, with per-case sparse delta patches for the outage. Cases
	// the batch cannot serve (structure mismatch, drift past the anchor
	// gate, guard trips) fall back to the ordinary scalar path with
	// identical results. 0 or 1 keeps every case scalar; Decomposition mode
	// and an explicit WLS.X0 ignore the knob.
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
	// GainRefreshes/GainSkips/PrecondSkips/ReuseFallbacks aggregate the §10
	// drift-gated reuse counters over all estimated cases, and
	// PrecondFallbacks the LDLᵀ breakdowns that ran on Jacobi.
	GainRefreshes    int
	GainSkips        int
	PrecondSkips     int
	ReuseFallbacks   int
	PrecondFallbacks int
	// BatchedCases and BatchFallbacks split the estimated cases of a
	// batched sweep (PoolOptions.Batch ≥ 2) by whether the case completed
	// inside a batched multi-RHS solve or fell back to the scalar path;
	// Reanchors counts sweeps that re-anchored the shared base gain
	// operator (the first batched sweep always does). All three stay zero
	// on scalar sweeps.
	BatchedCases   int
	BatchFallbacks int
	Reanchors      int
	// Compactions counts batched-solver width repacks: drained columns
	// removed from the shared mat-vec mid-solve. BatchMatVecs and
	// CompactedMatVecs count the batched solver's shared-operator passes
	// and those that ran below the original batch width — their ratio is
	// the sweep's compacted-iteration fraction. All three stay zero on
	// scalar sweeps.
	Compactions      int
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
	st.BatchedCases += o.BatchedCases
	st.BatchFallbacks += o.BatchFallbacks
	st.Reanchors += o.Reanchors
	st.Compactions += o.Compactions
	st.BatchMatVecs += o.BatchMatVecs
	st.CompactedMatVecs += o.CompactedMatVecs
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

	// Batched-sweep state (PoolOptions.Batch ≥ 2): the base-topology
	// session the shared gain operator anchors on, the batch engine over
	// it, and the frame-index → base-measurement-index inverse of its keep
	// mapping (rebuilt per sweep, read-only during one).
	baseSess    *caseSession
	batch       *wls.BatchEngine
	frameToBase []int32
	// Per-sweep scheduling scratch (Screen is serialized by runMu, so one
	// set per pool keeps the warm steady state allocation-free).
	drain     drainSorter
	unitStats []SweepStats
	caseErrs  []error
}

// caseCost is one outage's recorded lockstep cost from its previous
// successful estimate.
type caseCost struct{ gn, cg int }

// drainSorter orders case positions ascending by recorded (GN, CG) cost
// with an original-index tie-break. It implements sort.Interface on pool-
// owned slices so repeated sweeps sort without allocating.
type drainSorter struct {
	order []int
	costs []caseCost // indexed by case position, not by order slot
}

func (s *drainSorter) Len() int      { return len(s.order) }
func (s *drainSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *drainSorter) Less(a, b int) bool {
	ca, cb := s.costs[s.order[a]], s.costs[s.order[b]]
	if ca.gn != cb.gn {
		return ca.gn < cb.gn
	}
	if ca.cg != cb.cg {
		return ca.cg < cb.cg
	}
	return s.order[a] < s.order[b]
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
	// bc carries the case's batched-solve state (delta-patch cache) across
	// sweeps; measMap is its case → base measurement mapping scratch.
	bc      *wls.BatchCase
	measMap []int32
	// lastGN/lastCG record the previous successful estimate's iteration
	// counts; the batched sweep co-schedules cases of similar cost so the
	// columns of one lockstep unit drain together (drain-aware scheduling).
	lastGN, lastCG int
	haveCost       bool

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

// Reset drops every cached entry, including the batched sweep's base
// session and anchor. The next sweep rebuilds from scratch.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[int]*caseSession)
	p.baseSess, p.batch = nil, nil
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
	if p.baseSess != nil {
		p.baseSess.eng.ColdStart()
	}
	if p.batch != nil {
		p.batch.InvalidateAnchor()
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

	if p.opts.Batch >= 2 && p.opts.Decomposition == nil && p.opts.WLS.X0 == nil {
		if results, stats, ok, err := p.screenBatched(ctx, frame, ratings, cases, opts, threshold); ok {
			return results, stats, err
		}
		// Batched path unavailable (unsupported solve configuration or the
		// base anchor estimate failed): the scalar sweep decides the frame.
	}
	return p.screenScalar(ctx, frame, ratings, cases, opts, threshold)
}

// screenScalar is the ordinary one-case-per-solve sweep body.
func (p *Pool) screenScalar(ctx context.Context, frame []meas.Measurement, ratings []float64, cases []int, opts ParallelOptions, threshold float64) ([]CaseEstimate, SweepStats, error) {
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

// batchWLSOptions resolves the per-case WLS options of a batched sweep:
// the tracking reuse tier by default and the standard warm-start gate (the
// gate is inert for cases without a warm start, so setting it up front
// matches the scalar path's per-case logic exactly).
func (p *Pool) batchWLSOptions() wls.Options {
	wopts := p.opts.WLS
	if wopts.GainReuse == wls.ReuseAuto {
		wopts.GainReuse = wls.ReuseGain
	}
	if wopts.X0Gate == 0 {
		wopts.X0Gate = wls.WarmStartGate
	}
	return wopts
}

// screenBatched is the batched sweep body: one shared-anchor preparation,
// then units of up to Batch cases scheduled across workers, each unit
// solved by one lockstep multi-RHS gain solve (scalar fallback per case
// inside wls.BatchEngine). Units are packed drain-aware: cases are ordered
// by their previous frame's recorded (GN, CG) iteration cost so the
// columns of one unit tend to converge — and therefore drain and compact —
// together. Because that ordering decouples unit index from case index,
// per-case failures are collected against the original case indices and
// the lowest-indexed failing case's error is returned after the sweep,
// preserving the scalar path's deterministic error contract (cancellation
// still wins, and no partial results are returned). ok = false reports the
// batched path cannot run this sweep and no case was attempted.
func (p *Pool) screenBatched(ctx context.Context, frame []meas.Measurement, ratings []float64, cases []int, opts ParallelOptions, threshold float64) ([]CaseEstimate, SweepStats, bool, error) {
	wopts := p.batchWLSOptions()
	var prep SweepStats
	if !p.ensureBase(frame, &prep) {
		return nil, SweepStats{}, false, nil
	}
	if !p.batch.Supported(wopts) {
		return nil, SweepStats{}, false, nil
	}
	// Serial pre-sweep anchor: the base-topology estimate for this frame,
	// re-anchoring the shared gain operator when the operating point moved.
	// Its own solver work is sweep overhead, not a case, so only Reanchors
	// records it in the stats.
	if _, reanchored, err := p.batch.EnsureAnchor(ctx, wopts); err != nil {
		if ctx.Err() != nil {
			return nil, SweepStats{}, true, fmt.Errorf("contingency: screen canceled: %w", ctx.Err())
		}
		return nil, SweepStats{}, false, nil
	} else if reanchored {
		prep.Reanchors = 1
	}
	// Invert the base keep mapping: frame index → base measurement index.
	if cap(p.frameToBase) < len(frame) {
		p.frameToBase = make([]int32, len(frame))
	}
	p.frameToBase = p.frameToBase[:len(frame)]
	for i := range p.frameToBase {
		p.frameToBase[i] = -1
	}
	for bi, fi := range p.baseSess.keep {
		p.frameToBase[fi] = int32(bi)
	}

	width := p.opts.Batch
	units := (len(cases) + width - 1) / width
	results := make([]CaseEstimate, len(cases))
	perCase := make([]SweepStats, len(cases))
	if cap(p.unitStats) < units {
		p.unitStats = make([]SweepStats, units)
	}
	perUnit := p.unitStats[:units]
	for u := range perUnit {
		perUnit[u] = SweepStats{}
	}
	order := p.drainOrder(cases)
	// Per-case failures, indexed by original case position. The unit
	// closures record failures here and keep sweeping; the lowest-indexed
	// one is the sweep's error, exactly as the scalar scheduler's own
	// watermark guarantees when units and cases coincide.
	if cap(p.caseErrs) < len(cases) {
		p.caseErrs = make([]error, len(cases))
	}
	caseErrs := p.caseErrs[:len(cases)]
	for i := range caseErrs {
		caseErrs[i] = nil
	}
	var minFail atomic.Int64
	minFail.Store(int64(len(cases)))
	fail := func(k int, err error) {
		caseErrs[k] = err
		for {
			cur := minFail.Load()
			if int64(k) >= cur || minFail.CompareAndSwap(cur, int64(k)) {
				return
			}
		}
	}
	chk := newIslandChecker(p.base)
	err := schedule(ctx, units, opts.Workers, opts.Scheduling, func(u int) error {
		lo, hi := u*width, (u+1)*width
		if hi > len(cases) {
			hi = len(cases)
		}
		bcs := make([]*wls.BatchCase, 0, hi-lo)
		sess := make([]*caseSession, 0, hi-lo)
		idxs := make([]int, 0, hi-lo)
		for _, k := range order[lo:hi] {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("contingency: screen canceled: %w", err)
			}
			if int64(k) >= minFail.Load() {
				continue // a lower-indexed case already failed
			}
			out := cases[k]
			ce := CaseEstimate{Result: Result{Outage: out}}
			st := &perCase[k]
			st.Cases = 1
			if chk.islands(out) {
				ce.Islanding = true
				st.Islanding = 1
				results[k] = ce
				continue
			}
			e, err := p.ensureCase(out, frame, st)
			if err != nil {
				fail(k, fmt.Errorf("contingency: outage %d: %w", out, err))
				continue
			}
			results[k] = ce
			bcs = append(bcs, p.prepareBatchCase(e, st))
			sess = append(sess, e)
			idxs = append(idxs, k)
		}
		if len(bcs) == 0 {
			return nil
		}
		bst := p.batch.SolveBatch(ctx, bcs, wopts)
		perUnit[u].Compactions += bst.Compactions
		perUnit[u].BatchMatVecs += bst.MatVecs
		perUnit[u].CompactedMatVecs += bst.CompactedMatVecs
		for i, bc := range bcs {
			k := idxs[i]
			if bc.Err != nil {
				fail(k, fmt.Errorf("contingency: outage %d: %w", cases[k], bc.Err))
				continue
			}
			e := sess[i]
			e.warm, e.haveWarm = bc.Res.X, true
			e.lastGN, e.lastCG, e.haveCost = bc.Res.Iterations, bc.Res.CGIterations, true
			st := &perCase[k]
			st.Estimated = 1
			if bc.Fallback {
				st.BatchFallbacks = 1
			} else {
				st.BatchedCases = 1
			}
			st.GNIterations += bc.Res.Iterations
			st.CGIterations += bc.Res.CGIterations
			st.GainRefreshes += bc.Res.GainRefreshes
			st.GainSkips += bc.Res.GainSkips
			st.PrecondSkips += bc.Res.PrecondSkips
			st.ReuseFallbacks += bc.Res.ReuseFallbacks
			st.PrecondFallbacks += bc.Res.PrecondFallbacks
			results[k].Estimate = bc.Res
			if ratings != nil {
				results[k].Violations = p.acViolations(cases[k], estimatedState(&results[k]), ratings, threshold)
			}
		}
		return nil
	})
	if err != nil {
		return nil, SweepStats{}, true, err
	}
	if k := minFail.Load(); int(k) < len(cases) {
		return nil, SweepStats{}, true, caseErrs[k]
	}

	stats := prep
	for _, st := range perCase {
		stats.add(st)
	}
	for _, st := range perUnit {
		stats.add(st)
	}
	p.mu.Lock()
	p.builds += stats.SkeletonBuilds
	p.mu.Unlock()
	return results, stats, true, nil
}

// drainOrder returns the case indices permuted for drain-aware unit
// packing: ascending by the previous sweep's recorded (GN, CG) iteration
// cost, so cases expected to converge in the same number of lockstep
// rounds share a batch unit and its columns drain together. Cases without
// history (first sweep, fresh sessions, islanding) sort last as a group.
// Ties break on the original case index, so the permutation — and with it
// the sweep's unit composition — is deterministic given a deterministic
// frame history.
func (p *Pool) drainOrder(cases []int) []int {
	if cap(p.drain.costs) < len(cases) {
		p.drain.costs = make([]caseCost, len(cases))
		p.drain.order = make([]int, len(cases))
	}
	p.drain.costs = p.drain.costs[:len(cases)]
	p.drain.order = p.drain.order[:len(cases)]
	p.mu.Lock()
	for i, out := range cases {
		if e := p.entries[out]; e != nil && e.haveCost {
			p.drain.costs[i] = caseCost{e.lastGN, e.lastCG}
		} else {
			p.drain.costs[i] = caseCost{math.MaxInt, math.MaxInt}
		}
	}
	p.mu.Unlock()
	for i := range p.drain.order {
		p.drain.order[i] = i
	}
	sort.Sort(&p.drain)
	return p.drain.order
}

// ensureBase builds or value-refreshes the base-topology session the
// batched sweep anchors on, (re)creating the batch engine when the session
// was rebuilt. It reports false when the base model cannot be built for
// this frame.
func (p *Pool) ensureBase(frame []meas.Measurement, st *SweepStats) bool {
	if p.baseSess != nil && !p.baseSess.refreshCentralized(frame) {
		p.baseSess, p.batch = nil, nil // frame layout drift: rebuild
	}
	if p.baseSess == nil {
		e := &caseSession{outage: -1, net: p.base}
		e.rebuildKeep(frame)
		ms := append([]meas.Measurement(nil), e.scratch...)
		ref := p.base.SlackIndex()
		mod, err := meas.NewModel(p.base, ms, ref, refAngleFrom(ms, p.base.Buses[ref].ID))
		if err != nil {
			return false
		}
		e.mod, e.eng = mod, wls.NewEngine(mod)
		p.baseSess = e
		st.SkeletonBuilds++
	}
	if p.batch == nil {
		p.batch = wls.NewBatchEngine(p.baseSess.eng)
	}
	return true
}

// ensureCase returns the outage's session, built or value-refreshed for
// this frame — the session half of runCentralized.
func (p *Pool) ensureCase(out int, frame []meas.Measurement, st *SweepStats) (*caseSession, error) {
	e := p.sessionFor(out)
	if e != nil && !e.refreshCentralized(frame) {
		e = nil // layout drift: rebuild below
	}
	if e == nil {
		var err error
		if e, err = p.buildCentralized(out, frame); err != nil {
			return nil, err
		}
		st.SkeletonBuilds++
		p.mu.Lock()
		p.entries[out] = e
		p.mu.Unlock()
	}
	return e, nil
}

// sessionFor returns the cached session for an outage, nil if absent.
func (p *Pool) sessionFor(out int) *caseSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[out]
}

// prepareBatchCase assembles the session's wls.BatchCase for this sweep:
// the case → base measurement mapping through the frame indices, and the
// previous sweep's warm start.
func (p *Pool) prepareBatchCase(e *caseSession, st *SweepStats) *wls.BatchCase {
	if e.bc == nil {
		e.bc = &wls.BatchCase{Eng: e.eng}
	}
	if cap(e.measMap) < len(e.keep) {
		e.measMap = make([]int32, len(e.keep))
	}
	e.measMap = e.measMap[:len(e.keep)]
	for ci, fi := range e.keep {
		e.measMap[ci] = p.frameToBase[fi]
	}
	e.bc.MeasMap = e.measMap
	e.bc.X0 = nil
	if e.haveWarm && len(e.warm) == e.mod.NState() {
		e.bc.X0 = e.warm
		st.WarmStarts = 1
	}
	return e.bc
}

// invalidate applies the pool's two invalidation rules before a sweep:
// drop everything when the base topology changed since the last snapshot,
// and prune entries whose outage left the requested case list.
func (p *Pool) invalidate(cases []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !sameTopology(p.base, p.sig) {
		p.entries = make(map[int]*caseSession)
		p.baseSess, p.batch = nil, nil
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
	return p.runCentralized(ctx, out, frame, ce, st)
}

func (p *Pool) runCentralized(ctx context.Context, out int, frame []meas.Measurement, ce *CaseEstimate, st *SweepStats) error {
	e, err := p.ensureCase(out, frame, st)
	if err != nil {
		return err
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
	e.warm, e.haveWarm = res.X, true
	e.lastGN, e.lastCG, e.haveCost = res.Iterations, res.CGIterations, true
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
		dseOpts := p.opts.DSE
		dseOpts.Cache = nil // each entry pins its own tracker session
		e = &caseSession{outage: out, net: dec.Net, dec: dec, trk: core.NewTracker(dec, dseOpts)}
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
