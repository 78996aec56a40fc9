package wls

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// BatchGateDefault is the per-case scaled state-drift gate of the batched
// lagged-GN path: a case joins a batch only while its iterates stay within
// this drift of the shared anchor state. It is looser than the scalar
// ReuseGain gate because the per-case delta patch removes the structural
// error exactly — only state drift lags the operator — and every lagged
// step is still validated by the residual-decrease guard, so a loose gate
// risks wasted iterations, never a wrong estimate. Post-outage states sit a
// few hundredths (per-unit / radian, scaled) from the pre-outage operating
// point on the IEEE cases, which this gate admits.
const BatchGateDefault = 0.05

// batchAnchorDrift is the fraction of BatchGateDefault the base operating
// state may drift from the anchor before EnsureAnchor re-anchors (rebuilding
// every case delta). Re-anchoring well before the case gate keeps the
// cases' effective drift budget from being eaten by anchor staleness.
const batchAnchorDrift = BatchGateDefault / 4

// BatchEngine solves K structurally-compatible outage-case estimations in
// lockstep over one shared gain operator. It anchors the base (no-outage)
// model at an operating state, refreshes G_base = HᵀWH there once, and
// gives each case a sparse delta patch ΔG_k (built from the case Jacobian
// at the same anchor) so the case's lagged gain operator is
// G_base·x + ΔG_k·x. A batched multi-RHS CG then runs all K Gauss–Newton
// steps through one pass over G_base's nonzeros per iteration, with exact
// per-case right-hand sides; every lagged step passes the same
// residual-decrease guard as the scalar ReuseGain tier, and any case that
// trips a guard, diverges, or mismatches structurally re-runs the ordinary
// scalar path from its original warm start — a fallback therefore never
// changes an estimate.
//
// EnsureAnchor is serial (call it before fanning out); SolveBatch calls
// over disjoint case sets may run concurrently — the anchor is read-only
// mid-sweep and all mutable scratch is per-call.
type BatchEngine struct {
	base  *Engine
	gplan *sparse.GainPlan // batch-owned natural plan over the base H

	anchorValid bool
	epoch       int       // bumped per re-anchor; stale deltas rebuild lazily
	anchorX     []float64 // base state at the anchor
	anchorH     []float64 // base H.Val at the anchor
	anchorW     []float64 // base weights at the anchor
	baseDiag    []float64 // diag(G_base) at the anchor

	// anchorPre is the IC0 factorization of G_base at the anchor. One
	// factorization per re-anchor is amortized over every column of every
	// batch of every sweep, so the batched path affords a far stronger
	// preconditioner than the scalar tier's per-case Jacobi — on the IEEE
	// cases it cuts inner CG iterations ~4×. Nil after a factorization
	// breakdown; lockstep then preconditions with the per-case BatchJacobi.
	anchorPre *sparse.IC0Preconditioner

	baseWarm     []float64 // warm start carried across EnsureAnchor calls
	haveBaseWarm bool

	scratch sync.Pool // *batchScratch, one per concurrent SolveBatch
}

// batchScratch is the per-SolveBatch workspace: interleaved solve blocks,
// the batched preconditioner, and the delta-construction buffers.
type batchScratch struct {
	work    *sparse.BatchCGWorkspace
	rhs, x0 []float64 // n·k interleaved
	pre     *sparse.BatchJacobi
	deltas  []*sparse.GainDelta

	h2, w2  []float64 // delta construction: perturbed H values / weights
	rowSeen []bool
	rows    []int
}

// BatchCase is one outage case inside a batched solve. Eng is the case's
// own engine (exact per-case residuals and right-hand sides come from it;
// its drift-reuse anchor and preconditioner cache are never touched), and
// MeasMap maps each case measurement row to the base-model row it shadows.
// After SolveBatch, exactly one of Res/Err is meaningful per the
// EstimateCtx contract, and Fallback reports whether the case re-ran the
// scalar path.
type BatchCase struct {
	// Eng is the case engine. It must share the base model's state layout.
	Eng *Engine
	// MeasMap maps case measurement index -> base measurement index. Every
	// case row must shadow a distinct base row whose Jacobian pattern
	// contains the case row's (outage cases only lose entries).
	MeasMap []int32
	// X0 is the case warm start (nil = flat), gated by Options.X0Gate
	// exactly as in EstimateCtx.
	X0 []float64

	// Res and Err report the solve, matching EstimateCtx: Err == nil with a
	// full Res on convergence, both set on ErrNotConverged, Res == nil on
	// hard errors. Fallback reports the case ran the scalar path.
	Res      *Result
	Err      error
	Fallback bool

	// Delta state, cached across sweeps while the anchor epoch holds.
	epoch     int
	delta     *sparse.GainDelta
	diag      []float64
	structBad bool // base pattern cannot carry the case rows: always scalar

	// Per-solve lockstep state.
	x, dx, prevDx          []float64
	havePrevDx, hValid     bool
	done, failed, eligible bool
	gn, cg                 int
}

// NewBatchEngine builds a batched solver over the base-topology engine.
// The construction cost is one gain-plan symbolic build; the base engine
// remains usable (EnsureAnchor runs its estimates) but must not be driven
// concurrently with the batch.
func NewBatchEngine(base *Engine) *BatchEngine {
	m, n := base.mod.NMeas(), base.mod.NState()
	b := &BatchEngine{
		base:     base,
		gplan:    sparse.NewGainPlan(base.jplan.H),
		anchorX:  make([]float64, n),
		anchorW:  make([]float64, m),
		baseDiag: make([]float64, n),
	}
	b.scratch.New = func() any { return &batchScratch{work: &sparse.BatchCGWorkspace{}} }
	return b
}

// Supported reports whether the batched path can serve the given solve
// configuration: the PCG solver on the natural-ordered CSR gain layout with
// the default LDLᵀ, a Jacobi or the identity preconditioner. For those
// configurations the batch honors the same convergence contract (outer
// tolerance, residual-decrease guard, CG tolerance) while substituting the
// anchor-amortized IC0 inner preconditioner; anything else (orderings,
// blocked layouts, IC(0) or block-Jacobi per case, direct solvers) runs
// scalar.
func (b *BatchEngine) Supported(opts Options) bool {
	if opts.Solver != PCG {
		return false
	}
	if opts.Precond != PrecondLDL && opts.Precond != PrecondJacobi && opts.Precond != PrecondNone {
		return false
	}
	if format, err := b.base.resolveFormat(opts); err != nil || format != FormatCSR {
		return false
	}
	return resolveOrdering(opts) == OrderNatural
}

// EnsureAnchor estimates the base (no-outage) state for the current frame
// and re-anchors the shared gain operator there when the anchor is missing
// or the operating point drifted: G_base, its diagonal, and the H/weight
// snapshots are refreshed at the new state and the delta epoch advances
// (case deltas rebuild lazily on next use). It returns the base estimate
// (for counter aggregation) and whether a re-anchor happened. Callers run
// it serially before any SolveBatch of the sweep.
func (b *BatchEngine) EnsureAnchor(ctx context.Context, opts Options) (*Result, bool, error) {
	aopts := opts
	aopts.X0, aopts.X0Gate = nil, 0
	if b.haveBaseWarm {
		aopts.X0, aopts.X0Gate = b.baseWarm, WarmStartGate
	}
	res, err := b.base.EstimateCtx(ctx, aopts)
	if err != nil {
		b.anchorValid = false
		return nil, false, err
	}
	b.baseWarm, b.haveBaseWarm = res.X, true
	if b.anchorValid && sparse.ScaledDriftInf(res.X, b.anchorX) <= batchAnchorDrift {
		return res, false, nil
	}
	copy(b.anchorX, res.X)
	copy(b.anchorW, b.base.baseW)
	hj := b.base.jplan.Refresh(b.anchorX)
	g := b.gplan.RefreshPool(hj, b.anchorW, b.base.pool)
	if len(b.anchorH) != len(hj.Val) {
		b.anchorH = make([]float64, len(hj.Val))
	}
	copy(b.anchorH, hj.Val)
	g.DiagonalInto(b.baseDiag)
	if b.anchorPre != nil {
		if b.anchorPre.Refresh(g) != nil {
			b.anchorPre = nil // shift repair exhausted: Jacobi this epoch
		}
	} else if pre, err := sparse.NewIC0(g); err == nil {
		b.anchorPre = pre
	}
	b.epoch++
	b.anchorValid = true
	return res, true, nil
}

// InvalidateAnchor drops the shared anchor and the base warm start; the
// next EnsureAnchor re-anchors from scratch and every case delta rebuilds.
func (b *BatchEngine) InvalidateAnchor() {
	b.anchorValid = false
	b.haveBaseWarm = false
	b.epoch++
}

// BatchStats aggregates the batched inner-solver activity of one
// SolveBatch call across its lagged-GN rounds.
type BatchStats struct {
	// Compactions counts BatchCG width repacks across all rounds.
	Compactions int
	// MatVecs and CompactedMatVecs count the shared-operator passes and
	// those that ran below the original batch width; their ratio is the
	// compacted-iteration fraction of the batched solve.
	MatVecs          int
	CompactedMatVecs int
}

func (s *BatchStats) add(res sparse.BatchCGResult) {
	s.Compactions += res.Compactions
	s.MatVecs += res.MatVecs
	s.CompactedMatVecs += res.CompactedMatVecs
}

// SolveBatch runs every case to the EstimateCtx contract: eligible cases go
// through the lockstep batched lagged-GN solve, the rest (and any case a
// guard trips mid-flight) re-run the ordinary scalar path from their
// original warm start. opts.X0 is ignored — warm starts are per-case. The
// returned stats cover only the lockstep rounds of this call.
func (b *BatchEngine) SolveBatch(ctx context.Context, cases []*BatchCase, opts Options) BatchStats {
	var stats BatchStats
	for _, ce := range cases {
		ce.Res, ce.Err, ce.Fallback = nil, nil, false
		ce.eligible = false
	}
	if !b.anchorValid || !b.Supported(opts) {
		for _, ce := range cases {
			b.fallback(ctx, ce, opts)
		}
		return stats
	}
	scr := b.scratch.Get().(*batchScratch)
	defer b.scratch.Put(scr)

	elig := make([]*BatchCase, 0, len(cases))
	for _, ce := range cases {
		if b.prepare(ce, opts, scr) {
			ce.eligible = true
			elig = append(elig, ce)
		} else {
			b.fallback(ctx, ce, opts)
		}
	}
	if len(elig) == 0 {
		return stats
	}
	b.lockstep(ctx, elig, opts, scr, &stats)
	for _, ce := range elig {
		if ce.done && !ce.failed {
			res := &Result{
				Iterations:   ce.gn,
				Converged:    true,
				CGIterations: ce.cg,
				GainSkips:    ce.gn,
				PrecondSkips: ce.gn,
			}
			ce.Eng.finish(res, ce.x)
			ce.Res = res
			continue
		}
		if ce.Err != nil {
			continue // canceled mid-lockstep: error already recorded
		}
		// Guard trip, CG divergence, or Gauss–Newton cap: the scalar path
		// decides the case from the original warm start.
		b.fallback(ctx, ce, opts)
	}
	return stats
}

// fallback runs the ordinary scalar path for one case with its own warm
// start — bit-identical to the case never having been batched.
func (b *BatchEngine) fallback(ctx context.Context, ce *BatchCase, opts Options) {
	copts := opts
	copts.X0 = ce.X0
	ce.Res, ce.Err = ce.Eng.EstimateCtx(ctx, copts)
	ce.Fallback = true
}

// prepare validates a case for the batch (layout, structure, warm-start
// drift, preconditioner diagonal) and initializes its per-solve state. A
// false return sends the case to the scalar path, which also owns producing
// the proper error for genuinely broken inputs.
func (b *BatchEngine) prepare(ce *BatchCase, opts Options, scr *batchScratch) bool {
	e := ce.Eng
	n := b.base.mod.NState()
	if ce.structBad || e == nil || e.mod.NState() != n || e.mod.NMeas() < n {
		return false
	}
	if ce.epoch != b.epoch || ce.delta == nil {
		if !b.buildDelta(ce, scr) {
			ce.structBad = true
			return false
		}
	}
	if opts.Precond != PrecondNone {
		for _, d := range ce.diag {
			if !(d > 0) || math.IsInf(d, 1) {
				return false
			}
		}
	}

	// Per-solve numeric init, mirroring estimateWeighted's preamble.
	copy(e.w, e.baseW)
	for i, m := range e.mod.Meas {
		e.z[i] = m.Value
	}
	ce.x = e.mod.FlatVec() // fresh: finish hands it to the caller as Res.X
	if ce.X0 != nil {
		if len(ce.X0) != n {
			return false
		}
		copy(ce.x, ce.X0)
		if opts.X0Gate > 0 {
			flat := e.mod.FlatVec()
			if e.weightedSSR(ce.x) > opts.X0Gate*e.weightedSSR(flat) {
				copy(ce.x, flat)
			}
		}
	}
	if sparse.ScaledDriftInf(ce.x, b.anchorX) > BatchGateDefault {
		return false
	}
	if len(ce.dx) != n {
		ce.dx = make([]float64, n)
		ce.prevDx = make([]float64, n)
	}
	ce.havePrevDx, ce.hValid = false, false
	ce.done, ce.failed = false, false
	ce.gn, ce.cg = 0, 0
	return true
}

// buildDelta constructs the case's gain delta at the current anchor: the
// case Jacobian is refreshed at the anchor state and scattered into the
// base H pattern (base-only positions get exact zeros, dropped base rows
// get zero weight), the changed rows select the delta skeleton, and the
// per-case Jacobi diagonal is the base diagonal plus the delta's.
func (b *BatchEngine) buildDelta(ce *BatchCase, scr *batchScratch) bool {
	e := ce.Eng
	baseH := b.base.jplan.H
	caseH := e.jplan.Refresh(b.anchorX)
	mB := baseH.Rows
	if len(ce.MeasMap) != caseH.Rows {
		return false
	}
	scr.h2 = growF(scr.h2, len(baseH.Val))
	scr.w2 = growF(scr.w2, mB)
	if cap(scr.rowSeen) < mB {
		scr.rowSeen = make([]bool, mB)
	}
	scr.rowSeen = scr.rowSeen[:mB]
	copy(scr.h2, b.anchorH)
	copy(scr.w2, b.anchorW)
	for i := range scr.rowSeen {
		scr.rowSeen[i] = false
	}
	for cr := 0; cr < caseH.Rows; cr++ {
		br := int(ce.MeasMap[cr])
		if br < 0 || br >= mB || scr.rowSeen[br] {
			return false
		}
		scr.rowSeen[br] = true
		cp, cpe := caseH.RowPtr[cr], caseH.RowPtr[cr+1]
		for p := baseH.RowPtr[br]; p < baseH.RowPtr[br+1]; p++ {
			if cp < cpe && caseH.ColIdx[cp] == baseH.ColIdx[p] {
				scr.h2[p] = caseH.Val[cp]
				cp++
			} else {
				scr.h2[p] = 0
			}
		}
		if cp != cpe {
			return false // case row has a column outside the base pattern
		}
		scr.w2[br] = e.baseW[cr]
	}
	for br := 0; br < mB; br++ {
		if !scr.rowSeen[br] {
			scr.w2[br] = 0 // dropped measurement: zero weight kills the row
		}
	}
	scr.rows = scr.rows[:0]
	for br := 0; br < mB; br++ {
		if scr.w2[br] != b.anchorW[br] {
			scr.rows = append(scr.rows, br)
			continue
		}
		for p := baseH.RowPtr[br]; p < baseH.RowPtr[br+1]; p++ {
			if scr.h2[p] != b.anchorH[p] {
				scr.rows = append(scr.rows, br)
				break
			}
		}
	}
	ce.delta = b.gplan.DeltaScatter(scr.rows)
	ce.delta.Refresh(b.anchorH, b.anchorW, scr.h2, scr.w2)
	ce.diag = growF(ce.diag, len(b.baseDiag))
	copy(ce.diag, b.baseDiag)
	ce.delta.AddDiag(ce.diag)
	ce.epoch = b.epoch
	return true
}

// lockstep runs the batched lagged Gauss–Newton iteration: per round, each
// active case contributes its exact right-hand side Hᵀ(x_c)·W·r(x_c) as one
// column, a single BatchCG solves all columns over G_base + ΔG_c, and each
// accepted step passes the scalar ReuseGain guard (CG converged and the
// trial iterate does not increase J). Converged and failed cases keep zero
// columns, which drain at CG setup for free.
func (b *BatchEngine) lockstep(ctx context.Context, elig []*BatchCase, opts Options, scr *batchScratch, stats *BatchStats) {
	n := b.base.mod.NState()
	k := len(elig)
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	cgTol := opts.CGTol
	if cgTol <= 0 {
		cgTol = 1e-10
	}
	scr.rhs = growF(scr.rhs, n*k)
	scr.x0 = growF(scr.x0, n*k)
	scr.deltas = scr.deltas[:0]
	for _, ce := range elig {
		scr.deltas = append(scr.deltas, ce.delta)
	}
	cgOpts := sparse.BatchCGOptions{
		Tol:       cgTol,
		Deltas:    scr.deltas,
		X0:        scr.x0,
		Work:      scr.work,
		NoCompact: opts.NoBatchCompact,
	}
	if opts.Workers > 0 {
		cgOpts.Workers = opts.Workers
	} else {
		cgOpts.Pool = b.base.pool
	}
	if b.anchorPre != nil {
		// The anchor-amortized IC0 factor of G_base preconditions every
		// column. The per-column operator is G_base + ΔG_c, so the factor is
		// slightly lagged structurally, but a one-outage delta perturbs the
		// spectrum far less than the ~4× iteration headroom IC0 buys over
		// the per-case Jacobi diagonal.
		cgOpts.Precond = b.anchorPre
	} else if opts.Precond != PrecondNone {
		if scr.pre == nil || scr.pre.K() != k {
			scr.pre = sparse.NewBatchJacobi(n, k)
		}
		for c, ce := range elig {
			if err := scr.pre.SetColumn(c, ce.diag); err != nil {
				// prepare screened the diagonals; a failure here means a
				// non-finite value slipped through — scalar decides.
				ce.failed = true
			}
		}
		cgOpts.Precond = scr.pre
	}

	active := 0
	for _, ce := range elig {
		if !ce.failed {
			active++
		}
	}
	for iter := 0; iter < maxIter && active > 0; iter++ {
		if err := ctx.Err(); err != nil {
			for _, ce := range elig {
				if !ce.done && !ce.failed {
					ce.Err = fmt.Errorf("wls: canceled at iteration %d: %w", iter, err)
					ce.failed = true
				}
			}
			return
		}
		for c, ce := range elig {
			if ce.done || ce.failed {
				zeroColumn(scr.rhs, n, k, c)
				zeroColumn(scr.x0, n, k, c)
				continue
			}
			e := ce.Eng
			if sparse.ScaledDriftInf(ce.x, b.anchorX) > BatchGateDefault {
				// The case wandered out of the anchor's trust region.
				ce.failed = true
				active--
				zeroColumn(scr.rhs, n, k, c)
				zeroColumn(scr.x0, n, k, c)
				continue
			}
			if ce.hValid {
				ce.hValid = false // accepted trial left h/r at this iterate
			} else {
				e.jplan.EvalInto(e.h, ce.x)
				sparse.Sub(e.r, e.z, e.h)
			}
			hj := e.jplan.Refresh(ce.x)
			e.gainRHS(hj, opts)
			for i := 0; i < n; i++ {
				scr.rhs[i*k+c] = e.rhs[i]
			}
			if ce.havePrevDx {
				for i := 0; i < n; i++ {
					scr.x0[i*k+c] = ce.prevDx[i]
				}
			} else {
				zeroColumn(scr.x0, n, k, c)
			}
		}
		if active == 0 {
			return
		}
		res, err := sparse.BatchCG(b.gplan.G, scr.rhs, k, cgOpts)
		if err == nil {
			stats.add(res)
		}
		if err != nil {
			for _, ce := range elig {
				if !ce.done && !ce.failed {
					ce.failed = true
				}
			}
			return
		}
		for c, ce := range elig {
			if ce.done || ce.failed {
				continue
			}
			col := res.Cols[c]
			ce.cg += col.Iterations
			if col.Err != nil || !col.Converged {
				ce.failed = true
				active--
				continue
			}
			for i := 0; i < n; i++ {
				ce.dx[i] = res.X[i*k+c]
			}
			if !ce.Eng.trialImproves(ce.x, ce.dx) {
				ce.failed = true
				active--
				continue
			}
			ce.hValid = true
			sparse.Axpy(1, ce.dx, ce.x)
			copy(ce.prevDx, ce.dx)
			ce.havePrevDx = true
			ce.gn = iter + 1
			if sparse.NormInf(ce.dx) < tol {
				ce.done = true
				active--
			}
		}
	}
}

// zeroColumn clears column c of an n·k interleaved block.
func zeroColumn(v []float64, n, k, c int) {
	for i := 0; i < n; i++ {
		v[i*k+c] = 0
	}
}

// growF returns s resized to length n, reallocating only on growth.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
