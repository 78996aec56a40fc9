package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/sparse"
	"repro/internal/wls"
)

// The layer replay attributes estimation time to meas, sparse and wls from
// outside the packages: on the workload's representative model the driver
// performs the Gauss–Newton steps itself out of the layers' public calls,
// timing each, and times wls.Engine on the same model, so that wls self
// time is the engine's time minus the replayed children.

// layers is what the replay measured, in nanoseconds unless named
// otherwise. Zero means the layer is not on the workload's path.
type layers struct {
	// meas
	modelBuild, jacPlanBuild, updateValues, eval, jacRefresh float64
	hNNZ                                                     int
	// sparse
	gainPlanBuild, gainRefresh, gainRHS float64
	gNNZ                                int
	matvec, matvecBSR, matvecBytes      float64
	jacobiRefresh, jacobiApply          float64
	ic0Build, ic0Refresh, ic0Apply      float64
	cgSolve                             float64
	cgIters                             int
	precondRefresh                      float64 // of the engine's format
	// wls
	estimateCold, estimateWarm float64
	coldMeas, coldSparse       float64 // replayed children of one cold estimate, by layer
	warm                       counts  // summed over warmSolves warm estimates
	warmSolves                 int
	mirrors                    bool // the replayed Gauss–Newton reproduced the engine's estimate
	// core, medici, cluster
	aggregate, packetCodec    float64
	relay1K, relay1M, testbed float64
}

type replayer struct {
	tr   *tracer
	root int
}

// sample returns the median time of one call of f in nanoseconds. Calls are
// grouped so that a sample lasts about 50 µs, well above timer resolution;
// each sample is one span under the replay root. Replay spans carry the
// prefix "replay." to keep them apart from the spans of operations.
func (rp *replayer) sample(name string, f func()) float64 {
	t0 := time.Now()
	f()
	one := time.Since(t0)
	inner, samples := 1, 9
	if one < 50*time.Microsecond {
		inner = int(50 * time.Microsecond / max(one, 50*time.Nanosecond))
	}
	if one > 50*time.Millisecond {
		samples = 3
	}
	xs := make([]float64, samples)
	for s := range xs {
		id := rp.tr.begin("replay."+name, rp.root)
		t0 := time.Now()
		for k := 0; k < inner; k++ {
			f()
		}
		d := time.Since(t0)
		rp.tr.end(id)
		xs[s] = float64(d) / float64(inner)
	}
	return median(xs)
}

// representative returns the model the workload's estimators spend their
// time on: the full network, or the largest subsystem's Step-1 problem.
func representative(w workload, in *inputs, k int) (*meas.Model, error) {
	frame := in.frames[k]
	if w.replayFull {
		ref := in.net.SlackIndex()
		refAngle := 0.0
		for _, m := range frame {
			if m.Kind == meas.Angle && m.Bus == in.net.Buses[ref].ID {
				refAngle = m.Value
				break
			}
		}
		return meas.NewModel(in.net, frame, ref, refAngle)
	}
	dec, err := in.decompose()
	if err != nil {
		return nil, err
	}
	sp, err := dec.BuildStep1(largest(dec), frame)
	if err != nil {
		return nil, err
	}
	return sp.Model, nil
}

func largest(dec *core.Decomposition) int {
	best := 0
	for si, s := range dec.Subsystems {
		if len(s.Buses) > len(dec.Subsystems[best].Buses) {
			best = si
		}
	}
	return best
}

// gainSystem is the gain matrix in the layout wls.Options{} solves in: the
// scalar CSR plan, or above sparse.ParallelNNZThreshold the 2x2-blocked
// mirror of a bus-interleaved plan.
type gainSystem struct {
	gp   *sparse.GainPlan
	bsr  *sparse.BSR
	perm []int
	pre  *sparse.JacobiPreconditioner
	pool *sparse.Pool
}

func newGainSystem(mod *meas.Model, h *sparse.CSR) *gainSystem {
	gs := &gainSystem{gp: sparse.NewGainPlan(h), pool: sparse.DefaultPool()}
	if gs.gp.G.NNZ() < sparse.ParallelNNZThreshold {
		return gs
	}
	perm := sparse.BusInterleave(mod.NAngles(), mod.Net.N(), mod.RefBus(), nil)
	gs.gp = sparse.NewGainPlanOrdered(h, perm)
	gs.bsr = gs.gp.AttachBSR()
	gs.perm = make([]int, gs.bsr.Rows)
	copy(gs.perm, perm)
	for i := len(perm); i < len(gs.perm); i++ {
		gs.perm[i] = -1
	}
	return gs
}

func (gs *gainSystem) operator() sparse.Operator {
	if gs.bsr != nil {
		return gs.bsr
	}
	return gs.gp.G
}

func (gs *gainSystem) refresh(h *sparse.CSR, w []float64) {
	if gs.bsr != nil {
		gs.gp.RefreshPoolBSR(h, w, gs.pool)
	} else {
		gs.gp.RefreshPool(h, w, gs.pool)
	}
}

func (gs *gainSystem) refreshPrecond() error {
	var err error
	switch {
	case gs.pre != nil && gs.bsr != nil:
		err = gs.pre.RefreshBSR(gs.bsr)
	case gs.pre != nil:
		err = gs.pre.Refresh(gs.gp.G)
	case gs.bsr != nil:
		gs.pre, err = sparse.NewJacobiBSR(gs.bsr)
	default:
		gs.pre, err = sparse.NewJacobi(gs.gp.G)
	}
	return err
}

// replayCold performs one flat-start Gauss–Newton estimate of mod the way
// wls.Engine does under wls.Options{}, a span around every layer call. It
// returns the solution and its iteration count, and records in ly the time
// spent inside the meas and the sparse calls.
func (rp *replayer) replayCold(mod *meas.Model, ly *layers) ([]float64, int, error) {
	parent := rp.tr.begin("replay.wls.gauss_newton", rp.root)
	defer rp.tr.end(parent)
	var inMeas, inSparse time.Duration
	timed := func(name string, acc *time.Duration, f func()) {
		id := rp.tr.begin("replay."+name, parent)
		t0 := time.Now()
		f()
		*acc += time.Since(t0)
		rp.tr.end(id)
	}

	var jp *meas.JacobianPlan
	var gs *gainSystem
	timed("meas.jacplan_build", &inMeas, func() { jp = mod.NewJacobianPlan() })
	timed("sparse.gainplan_build", &inSparse, func() { gs = newGainSystem(mod, jp.H) })

	m, n := mod.NMeas(), mod.NState()
	w, z := mod.Weights(), make([]float64, m)
	for i, ms := range mod.Meas {
		z[i] = ms.Value
	}
	h, r, wr := make([]float64, m), make([]float64, m), make([]float64, m)
	rhs, dx, prev := make([]float64, n), make([]float64, n), make([]float64, n)
	scratch := make([]float64, gs.pool.Workers()*n)
	work := sparse.NewCGWorkspace(n)
	x := mod.FlatVec()
	for iter := 1; iter <= 25; iter++ {
		var hj *sparse.CSR
		var err error
		var cg sparse.CGResult
		timed("meas.eval", &inMeas, func() { jp.EvalInto(h, x); sparse.Sub(r, z, h) })
		timed("meas.jac_refresh", &inMeas, func() { hj = jp.Refresh(x) })
		timed("sparse.gain_refresh", &inSparse, func() { gs.refresh(hj, w) })
		timed("sparse.gain_rhs", &inSparse, func() { sparse.GainRHSPool(rhs, hj, w, r, wr, gs.pool, scratch) })
		timed("sparse.precond_refresh", &inSparse, func() { err = gs.refreshPrecond() })
		if err != nil {
			return nil, 0, fmt.Errorf("replay: preconditioner: %w", err)
		}
		opts := sparse.CGOptions{Tol: 1e-10, Precond: gs.pre, Work: work, Perm: gs.perm, Pool: gs.pool}
		if iter > 1 {
			opts.X0 = prev
		}
		timed("sparse.cg", &inSparse, func() { cg, err = sparse.CG(gs.operator(), rhs, opts) })
		if err != nil {
			return nil, 0, fmt.Errorf("replay: CG: %w", err)
		}
		copy(dx, cg.X)
		copy(prev, dx)
		sparse.Axpy(1, dx, x)
		if sparse.NormInf(dx) < 1e-6 {
			ly.coldMeas, ly.coldSparse = float64(inMeas), float64(inSparse)
			return x, iter, nil
		}
	}
	return nil, 0, fmt.Errorf("replay: Gauss-Newton did not converge")
}

// replay measures every layer the workload runs, on its representative
// model.
func replay(ctx context.Context, w workload, in *inputs, tr *tracer) (*layers, error) {
	tr.nextOp()
	rp := &replayer{tr: tr}
	rp.root = tr.begin("gridse.replay", -1)
	defer func() { tr.end(rp.root) }()
	ly := &layers{}

	mod, err := representative(w, in, 0)
	if err != nil {
		return nil, fmt.Errorf("replay: representative model: %w", err)
	}
	next, err := representative(w, in, 1)
	if err != nil {
		return nil, fmt.Errorf("replay: representative model: %w", err)
	}

	// Symbolic builds and the value refresh of a streamed frame.
	ly.modelBuild = rp.sample("meas.model_build", func() {
		_, err = meas.NewModel(mod.Net, mod.Meas, mod.RefBus(), mod.RefAngle())
	})
	if err != nil {
		return nil, err
	}
	ly.updateValues = rp.sample("meas.update_values", func() { err = mod.UpdateValues(mod.Meas) })
	if err != nil {
		return nil, err
	}
	var jp *meas.JacobianPlan
	ly.jacPlanBuild = rp.sample("meas.jacplan_build", func() { jp = mod.NewJacobianPlan() })
	ly.hNNZ = jp.H.NNZ()
	var gs *gainSystem
	ly.gainPlanBuild = rp.sample("sparse.gainplan_build", func() { gs = newGainSystem(mod, jp.H) })
	ly.gNNZ = gs.gp.G.NNZ()

	// Cold replayed estimates against the engine's; of three passes the
	// one with the median time inside the layers is kept.
	var x []float64
	var iters int
	passes := make([][2]float64, 3)
	for k := range passes {
		if x, iters, err = rp.replayCold(mod, ly); err != nil {
			return nil, err
		}
		passes[k] = [2]float64{ly.coldMeas, ly.coldSparse}
	}
	sort.Slice(passes, func(a, b int) bool { return passes[a][0]+passes[a][1] < passes[b][0]+passes[b][1] })
	ly.coldMeas, ly.coldSparse = passes[1][0], passes[1][1]
	var cold *wls.Result
	ly.estimateCold = rp.sample("wls.estimate_cold", func() {
		cold, err = wls.NewEngine(mod).EstimateCtx(ctx, wls.Options{})
	})
	if err != nil {
		return nil, fmt.Errorf("replay: cold engine estimate: %w", err)
	}
	worst := 0.0
	for i := range x {
		worst = math.Max(worst, math.Abs(x[i]-cold.X[i]))
	}
	ly.mirrors = iters == cold.Iterations && worst < 1e-8

	// Warm: the engine tracking two alternating frames from its previous
	// solution under the workload's reuse tier — the numeric profile of a
	// steady tracked frame.
	eng := wls.NewEngine(mod)
	frames := [2][]meas.Measurement{append([]meas.Measurement(nil), mod.Meas...), next.Meas}
	refs := [2]float64{mod.RefAngle(), next.RefAngle()}
	prev, k := cold.X, 0
	ly.estimateWarm = rp.sample("wls.estimate_warm", func() {
		k ^= 1
		if err = mod.UpdateValues(frames[k]); err != nil {
			return
		}
		mod.SetRefAngle(refs[k])
		var res *wls.Result
		if res, err = eng.EstimateCtx(ctx, wls.Options{X0: prev, GainReuse: w.warmTier}); err != nil {
			return
		}
		prev = res.X
		ly.warmSolves++
		addEstimates(&ly.warm, []*wls.Result{res})
	})
	if err != nil {
		return nil, fmt.Errorf("replay: warm engine estimate: %w", err)
	}
	// Back to frame 0 for the kernels below.
	if err := mod.UpdateValues(frames[0]); err != nil {
		return nil, err
	}
	mod.SetRefAngle(refs[0])

	// Numeric kernels at the solution, on the layout the engine uses.
	m, n := mod.NMeas(), mod.NState()
	wv, hbuf, r, wr := mod.Weights(), make([]float64, m), make([]float64, m), make([]float64, m)
	for i, ms := range mod.Meas {
		r[i] = ms.Value
	}
	rhs := make([]float64, n)
	ly.eval = rp.sample("meas.eval", func() { jp.EvalInto(hbuf, cold.X) })
	sparse.Sub(r, r, hbuf)
	var hj *sparse.CSR
	ly.jacRefresh = rp.sample("meas.jac_refresh", func() { hj = jp.Refresh(cold.X) })
	ly.gainRefresh = rp.sample("sparse.gain_refresh", func() { gs.refresh(hj, wv) })
	scratch := make([]float64, gs.pool.Workers()*n)
	ly.gainRHS = rp.sample("sparse.gain_rhs", func() { sparse.GainRHSPool(rhs, hj, wv, r, wr, gs.pool, scratch) })
	ly.precondRefresh = rp.sample("sparse.precond_refresh", func() { err = gs.refreshPrecond() })
	if err != nil {
		return nil, err
	}

	// The same kernels on scalar storage, whatever layout the engine picked,
	// so that CSR, BSR, Jacobi and IC(0) compare on one matrix.
	g := sparse.NewGainPlan(jp.H).Refresh(hj, wv)
	b2 := sparse.NewBSR2(g)
	xin, y := make([]float64, b2.Rows), make([]float64, b2.Rows)
	for i := range xin {
		xin[i] = 1 + float64(i%7)/7
	}
	ly.matvec = rp.sample("sparse.matvec", func() { g.MulVec(y[:n], xin[:n]) })
	ly.matvecBSR = rp.sample("sparse.matvec_bsr", func() { b2.MulVec(y, xin) })
	ly.matvecBytes = float64(8 * (len(g.Val) + len(g.ColIdx) + len(g.RowPtr) + 2*n))
	jac, err := sparse.NewJacobi(g)
	if err != nil {
		return nil, err
	}
	ly.jacobiRefresh = rp.sample("sparse.jacobi_refresh", func() { err = jac.Refresh(g) })
	ly.jacobiApply = rp.sample("sparse.jacobi_apply", func() { jac.Apply(y[:n], xin[:n]) })
	var ic *sparse.IC0Preconditioner
	ly.ic0Build = rp.sample("sparse.ic0_build", func() { ic, err = sparse.NewIC0(g) })
	if err != nil {
		return nil, fmt.Errorf("replay: IC(0): %w", err)
	}
	ly.ic0Refresh = rp.sample("sparse.ic0_refresh", func() { err = ic.Refresh(g) })
	if err != nil {
		return nil, fmt.Errorf("replay: IC(0) refresh: %w", err)
	}
	ly.ic0Apply = rp.sample("sparse.ic0_apply", func() { ic.Apply(y[:n], xin[:n]) })

	// One cold CG solve of the first Gauss–Newton system.
	flat := mod.FlatVec()
	jp.EvalInto(hbuf, flat)
	for i, ms := range mod.Meas {
		r[i] = ms.Value - hbuf[i]
	}
	hj = jp.Refresh(flat)
	gs.refresh(hj, wv)
	sparse.GainRHSPool(rhs, hj, wv, r, wr, gs.pool, scratch)
	if err := gs.refreshPrecond(); err != nil {
		return nil, err
	}
	work := sparse.NewCGWorkspace(n)
	var cg sparse.CGResult
	ly.cgSolve = rp.sample("sparse.cg", func() {
		cg, err = sparse.CG(gs.operator(), rhs, sparse.CGOptions{Tol: 1e-10, Precond: gs.pre, Work: work, Perm: gs.perm, Pool: gs.pool})
	})
	if err != nil {
		return nil, fmt.Errorf("replay: CG: %w", err)
	}
	ly.cgIters = cg.Iterations

	if !w.replayFull {
		if err := rp.replayCore(in, ly); err != nil {
			return nil, err
		}
	}
	if w.transport {
		if err := rp.replayTransport(ctx, ly); err != nil {
			return nil, err
		}
	}
	return ly, nil
}

// replayCore times aggregation over every subsystem and the codec of one
// real pseudo-measurement packet.
func (rp *replayer) replayCore(in *inputs, ly *layers) error {
	dec, err := in.decompose()
	if err != nil {
		return err
	}
	subs := make([]*core.Subproblem, len(dec.Subsystems))
	for si := range subs {
		if subs[si], err = dec.BuildStep1(si, in.frames[0]); err != nil {
			return err
		}
	}
	global := in.truth.Clone()
	ly.aggregate = rp.sample("core.aggregate", func() {
		for _, sp := range subs {
			sp.MergeInto(dec, sp.Model.VecToState(sp.Model.FlatVec()), &global)
		}
	})
	big := subs[largest(dec)]
	pkt := dec.ExtractPseudo(big.Sub.Index, big, big.Model.VecToState(big.Model.FlatVec()))
	ly.packetCodec = rp.sample("core.packet_codec", func() {
		var b []byte
		if b, err = core.EncodePacket(pkt); err == nil {
			_, err = core.DecodePacket(b)
		}
	})
	return err
}

// replayTransport times what RunDistributed pays per run outside
// estimation: a testbed brought up and torn down, and the middleware relay
// overhead at the size of a real exchange message and at 1 MiB.
func (rp *replayer) replayTransport(ctx context.Context, ly *layers) error {
	var err error
	ly.testbed = rp.sample("cluster.testbed_up", func() {
		var tb *cluster.Testbed
		if tb, err = cluster.NewTestbed(distOpts.Clusters, 0, nil); err == nil {
			tb.Close()
		}
	})
	if err != nil {
		return err
	}
	relay := func(size int) (float64, error) {
		var xs []float64
		for k := 0; k < 5; k++ {
			id := rp.tr.begin("replay.medici.relay", rp.root)
			s, err := medici.MeasureOverhead(ctx, nil, size, 0)
			rp.tr.end(id)
			if err != nil {
				return 0, err
			}
			xs = append(xs, float64(s.Overhead))
		}
		return median(xs), nil
	}
	if ly.relay1K, err = relay(1 << 10); err != nil {
		return err
	}
	ly.relay1M, err = relay(1 << 20)
	return err
}

// warmSplit models where a warm engine solve's time goes from the solves'
// own counters and the replayed unit costs, returning the meas and sparse
// fractions of it; the rest is wls self time.
func (ly *layers) warmSplit() (fMeas, fSparse float64) {
	if ly.warmSolves == 0 || ly.estimateWarm == 0 {
		return 0, 0
	}
	per := func(k counter) float64 { return ly.warm[k] / float64(ly.warmSolves) }
	// Every iteration evaluates h and refreshes H; an accepted lagged step
	// evaluates h once more for its descent guard.
	inMeas := per(cGN)*(ly.eval+ly.jacRefresh) + per(cGainSkip)*ly.eval
	precondRefreshes := per(cGainRefresh) + per(cGainSkip) - per(cPrecondSkip)
	inSparse := per(cGN)*ly.gainRHS + per(cGainRefresh)*ly.gainRefresh +
		precondRefreshes*ly.precondRefresh + per(cCG)*ratio(ly.cgSolve, float64(ly.cgIters))
	total := math.Max(ly.estimateWarm, inMeas+inSparse)
	return inMeas / total, inSparse / total
}
