package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/contingency"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/scada"
	"repro/internal/wls"
)

// sizing scales the workloads. full is what BENCHMARK.json measures; smoke
// is the cut the unit test runs so that it stays cheap under -race.
type sizing struct {
	areas     int // SynthWECC areas of the two WECC workloads
	outages   int // screen118 outage count, 0 = every in-service branch
	frames118 int // distinct frames cycled on the IEEE-118 workloads
	framesBig int // distinct frames cycled on the WECC workloads
	setups    int // cold set-ups per run, 0 = the workload's own count
}

var (
	full  = sizing{areas: 12, frames118: 256, framesBig: 48}
	smoke = sizing{areas: 2, outages: 16, frames118: 4, framesBig: 2, setups: 1}
)

// Networks and decompositions are the same for every seed, so that timing
// compares across seeds; the seed drives the measurement noise only.
const structureSeed = 1

// screenTol is how far a screen118 case state may sit from the cold scalar
// reference: ten Gauss–Newton tolerances, because a warm lagged-gain solve
// and a cold one each stop within one tolerance of the fixed point.
const screenTol = 1e-5

// counter indexes the per-operation counts and reported durations
// (nanoseconds) a result carries.
type counter int

const (
	cGN counter = iota
	cCG
	cGainRefresh
	cGainSkip
	cPrecondSkip
	cReuseFallback
	cExchBytes
	cExchMsgs
	cSkeletons
	cLead // unreported time before the first reported phase
	cMap
	cAcquire
	cStep1
	cRemap
	cRedistribute
	cExchange
	cStep2
	cAggregate
	cWireBytes
	cWireMsgs
	cMigrations
	cImbalance
	cEdgeCut
	cCases
	cEstimated
	cWarmStarts
	cBatched
	cBatchFallbacks
	cReanchors
	cBatchMatVecs
	cCompactedMatVecs
	nCounters
)

type counts [nCounters]float64

func (c *counts) add(o *counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// phaseSpans names, in execution order, the durations the program reports
// about one operation; the tracer lays them out back to back after cLead.
var phaseSpans = []struct {
	c    counter
	name string
}{
	{cMap, "partition.map"},
	{cAcquire, "medici.acquire"},
	{cStep1, "core.step1"},
	{cRemap, "partition.remap"},
	{cRedistribute, "medici.redistribute"},
	{cExchange, "medici.exchange"},
	{cStep2, "core.step2"},
	{cAggregate, "core.aggregate"},
}

// result is what one operation delivered.
type result struct {
	frame int             // index of the frame it ran on
	state powerflow.State // system-wide state (zero for screen118)
	final []*wls.Result   // final-step estimates: J, degrees of freedom, convergence
	sweep []contingency.CaseEstimate
	c     counts
}

// instance is a set-up, warm program under test.
type instance interface {
	// run performs operation i and returns what it delivered and the wall
	// time of the call into the program alone.
	run(ctx context.Context, i int) (result, time.Duration, error)
}

type setupTimes struct {
	total, decompose, firstFrame, prime time.Duration
}

// inputs is everything generated from the seed.
type inputs struct {
	net       *grid.Network
	truth     powerflow.State
	frames    [][]meas.Measurement
	decompose func() (*core.Decomposition, error)
	// screen118 only.
	ratings []float64
	cases   []int
	ref     [][]contingency.CaseEstimate

	gridBuild, pfSolve, frameGen, ratingsTime, total time.Duration
	pfIters                                          int
}

type workload struct {
	name string
	// setups is how many cold set-ups one run times for setup_s.
	setups int
	// pinMrad is the RMS bus-angle error pinned for the workload at full
	// size; an operation whose error exceeds three times it has failed.
	pinMrad float64
	// replayFull makes the layer replay run on the full network's model
	// rather than on the largest subsystem's.
	replayFull bool
	// warmTier is the numeric-reuse tier the workload's warm solves run
	// under, which the layer replay's warm estimate copies.
	warmTier wls.GainReuseKind
	// coldOps says every operation is one cold estimate, so wls self time
	// and the layer shares come from the replayed cold estimate, not from
	// the warm one.
	coldOps bool
	// transport says the operation runs over the cluster testbed, which the
	// layer replay then times along with the middleware relay.
	transport bool
	generate  func(seed int64, sz sizing) (*inputs, error)
	setup     func(ctx context.Context, in *inputs) (instance, setupTimes, error)
}

var workloads = []workload{
	{
		name: "track118", setups: 7, pinMrad: 0.74, warmTier: wls.ReuseGain,
		generate: gen118, setup: setupTracker,
	},
	{
		name: "track_wecc12", setups: 7, pinMrad: 0.88, warmTier: wls.ReuseGain,
		generate: genWECC, setup: setupTracker,
	},
	{
		name: "central_wecc12", setups: 7, pinMrad: 0.57, replayFull: true, warmTier: wls.ReuseOff, coldOps: true,
		generate: genWECC, setup: setupCentral,
	},
	{
		name: "screen118", setups: 3, pinMrad: 0.001, replayFull: true, warmTier: wls.ReuseGain,
		generate: genScreen, setup: setupScreen,
	},
	{
		name: "dist118", setups: 7, pinMrad: 0.72, warmTier: wls.ReusePrecond, transport: true,
		generate: gen118, setup: setupDist,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generateOn solves the truth on n and draws nFrames SCADA frames from it.
// With a decomposition the plan carries the PMU measurements DSE needs at
// every subsystem reference bus.
func generateOn(n *grid.Network, gridBuild time.Duration, pfOpts powerflow.Options,
	decompose func() (*core.Decomposition, error), nFrames int, seed int64) (*inputs, error) {
	in := &inputs{net: n, gridBuild: gridBuild, decompose: decompose}
	t0 := time.Now()
	pf, err := powerflow.Solve(n, pfOpts)
	if err != nil {
		return nil, fmt.Errorf("truth power flow: %w", err)
	}
	in.pfSolve, in.pfIters, in.truth = time.Since(t0), pf.Iterations, pf.State

	plan := meas.FullPlan().Build(n)
	if decompose != nil {
		dec, err := decompose()
		if err != nil {
			return nil, err
		}
		plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
	}
	// Feed frame k draws its noise from BaseSeed+k; spacing the base seeds
	// keeps the frames of neighbouring seeds apart.
	feed := scada.NewSCADAFeed(n, in.truth, plan, seed*1_000_003)
	t0 = time.Now()
	for k := 0; k < nFrames; k++ {
		f, err := feed.Next()
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, f.Measurements)
	}
	in.frameGen = time.Since(t0) / time.Duration(nFrames)
	return in, nil
}

func gen118(seed int64, sz sizing) (*inputs, error) {
	t0 := time.Now()
	n := grid.Case118()
	build := time.Since(t0)
	dec := func() (*core.Decomposition, error) {
		return core.Decompose(n, 9, core.DecomposeOptions{Seed: structureSeed})
	}
	in, err := generateOn(n, build, powerflow.Options{FlatStart: true}, dec, sz.frames118, seed)
	if err != nil {
		return nil, err
	}
	in.total = time.Since(t0)
	return in, nil
}

func genWECC(seed int64, sz sizing) (*inputs, error) {
	t0 := time.Now()
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: sz.areas, Seed: structureSeed})
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	dec := func() (*core.Decomposition, error) {
		return core.DecomposeWithParts(n, sz.areas, grid.AreaParts(n), 1)
	}
	in, err := generateOn(n, build, powerflow.Options{FlatStart: true, MaxIter: 40}, dec, sz.framesBig, seed)
	if err != nil {
		return nil, err
	}
	in.total = time.Since(t0)
	return in, nil
}

// genScreen also computes the reference the what-if states are checked
// against: a cold scalar sweep of each frame on a fresh default pool.
func genScreen(seed int64, sz sizing) (*inputs, error) {
	t0 := time.Now()
	n := grid.Case118()
	build := time.Since(t0)
	in, err := generateOn(n, build, powerflow.Options{FlatStart: true}, nil, 2, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	in.ratings, err = contingency.AutoRatings(n, in.truth, 1.3, 0.3, contingency.Options{})
	if err != nil {
		return nil, err
	}
	in.ratingsTime = time.Since(t1)
	if sz.outages > 0 {
		for bi, br := range n.Branches {
			if br.Status && len(in.cases) < sz.outages {
				in.cases = append(in.cases, bi)
			}
		}
	}
	for _, f := range in.frames {
		pool, err := contingency.NewPool(n, contingency.PoolOptions{})
		if err != nil {
			return nil, err
		}
		ref, _, err := pool.Screen(context.Background(), f, in.ratings, in.cases, screenOpts)
		if err != nil {
			return nil, fmt.Errorf("screen118 reference sweep: %w", err)
		}
		in.ref = append(in.ref, ref)
	}
	in.total = time.Since(t0)
	return in, nil
}

// trackerInst serves track118 and track_wecc12: op = Tracker.Step.
type trackerInst struct {
	in     *inputs
	trk    *core.Tracker
	builds int
}

func setupTracker(ctx context.Context, in *inputs) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	dec, err := in.decompose()
	if err != nil {
		return nil, st, err
	}
	st.decompose = time.Since(t0)
	t := &trackerInst{in: in, trk: core.NewTracker(dec, core.DSEOptions{Rounds: 2})}
	t1 := time.Now()
	if _, err := t.trk.Step(ctx, in.frames[0]); err != nil {
		return nil, st, err
	}
	st.firstFrame = time.Since(t1)
	st.total = time.Since(t0)
	t.builds = t.trk.SkeletonBuilds()
	return t, st, nil
}

func (t *trackerInst) run(ctx context.Context, i int) (result, time.Duration, error) {
	r := result{frame: i % len(t.in.frames)}
	t0 := time.Now()
	res, err := t.trk.Step(ctx, t.in.frames[r.frame])
	d := time.Since(t0)
	if err != nil {
		return r, d, err
	}
	r.state, r.final = res.State, res.Step2
	addStepStats(&r.c, res.Step1Stats)
	addStepStats(&r.c, res.Step2Stats)
	r.c[cStep1] = float64(res.Step1Stats.Duration)
	r.c[cStep2] = float64(res.Step2Stats.Duration)
	r.c[cExchBytes] = float64(res.ExchangeBytes)
	r.c[cExchMsgs] = float64(res.ExchangeMessages)
	b := t.trk.SkeletonBuilds()
	r.c[cSkeletons], t.builds = float64(b-t.builds), b
	return r, d, nil
}

func addStepStats(c *counts, s core.StepStats) {
	c[cGN] += float64(s.Iterations)
	c[cCG] += float64(s.CGIterations)
	c[cGainRefresh] += float64(s.GainRefreshes)
	c[cGainSkip] += float64(s.GainSkips)
	c[cPrecondSkip] += float64(s.PrecondSkips)
	c[cReuseFallback] += float64(s.ReuseFallbacks)
}

func addEstimates(c *counts, rs []*wls.Result) {
	for _, r := range rs {
		c[cGN] += float64(r.Iterations)
		c[cCG] += float64(r.CGIterations)
		c[cGainRefresh] += float64(r.GainRefreshes)
		c[cGainSkip] += float64(r.GainSkips)
		c[cPrecondSkip] += float64(r.PrecondSkips)
		c[cReuseFallback] += float64(r.ReuseFallbacks)
	}
}

// centralInst serves central_wecc12: op = a cold CentralizedEstimate.
type centralInst struct {
	in  *inputs
	one [1]*wls.Result
}

func setupCentral(ctx context.Context, in *inputs) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	if _, err := core.CentralizedEstimate(ctx, in.net, in.frames[0], wls.Options{}); err != nil {
		return nil, st, err
	}
	st.firstFrame = time.Since(t0)
	st.total = st.firstFrame
	return &centralInst{in: in}, st, nil
}

func (c *centralInst) run(ctx context.Context, i int) (result, time.Duration, error) {
	r := result{frame: i % len(c.in.frames)}
	t0 := time.Now()
	res, err := core.CentralizedEstimate(ctx, c.in.net, c.in.frames[r.frame], wls.Options{})
	d := time.Since(t0)
	if err != nil {
		return r, d, err
	}
	c.one[0] = res
	r.state, r.final = res.State, c.one[:]
	addEstimates(&r.c, r.final)
	return r, d, nil
}

// screenOpts is the cmd/contingency sweep configuration.
var screenOpts = contingency.ParallelOptions{Scheduling: contingency.CounterScheduling}

// screenInst serves screen118: op = one warm Pool.Screen sweep.
type screenInst struct {
	in   *inputs
	pool *contingency.Pool
}

func setupScreen(ctx context.Context, in *inputs) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	pool, err := contingency.NewPool(in.net, contingency.PoolOptions{Batch: 8})
	if err != nil {
		return nil, st, err
	}
	// Two priming sweeps: the first builds skeletons, the second seeds warm
	// starts inside the batch anchor gate.
	for _, f := range in.frames {
		if _, _, err := pool.Screen(ctx, f, in.ratings, in.cases, screenOpts); err != nil {
			return nil, st, err
		}
	}
	st.prime = time.Since(t0)
	st.total = st.prime
	return &screenInst{in: in, pool: pool}, st, nil
}

func (s *screenInst) run(ctx context.Context, i int) (result, time.Duration, error) {
	r := result{frame: i % len(s.in.frames)}
	t0 := time.Now()
	res, st, err := s.pool.Screen(ctx, s.in.frames[r.frame], s.in.ratings, s.in.cases, screenOpts)
	d := time.Since(t0)
	if err != nil {
		return r, d, err
	}
	r.sweep = res
	r.c[cGN] = float64(st.GNIterations)
	r.c[cCG] = float64(st.CGIterations)
	r.c[cGainRefresh] = float64(st.GainRefreshes)
	r.c[cGainSkip] = float64(st.GainSkips)
	r.c[cPrecondSkip] = float64(st.PrecondSkips)
	r.c[cReuseFallback] = float64(st.ReuseFallbacks)
	r.c[cSkeletons] = float64(st.SkeletonBuilds)
	r.c[cCases] = float64(st.Cases)
	r.c[cEstimated] = float64(st.Estimated)
	r.c[cWarmStarts] = float64(st.WarmStarts)
	r.c[cBatched] = float64(st.BatchedCases)
	r.c[cBatchFallbacks] = float64(st.BatchFallbacks)
	r.c[cReanchors] = float64(st.Reanchors)
	r.c[cBatchMatVecs] = float64(st.BatchMatVecs)
	r.c[cCompactedMatVecs] = float64(st.CompactedMatVecs)
	return r, d, nil
}

// distInst serves dist118: op = RunDistributed on a fresh loopback testbed,
// over the decomposition-owned session.
type distInst struct {
	in  *inputs
	dec *core.Decomposition
}

var distOpts = core.DistributedOptions{Clusters: 3}

func setupDist(ctx context.Context, in *inputs) (instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	dec, err := in.decompose()
	if err != nil {
		return nil, st, err
	}
	st.decompose = time.Since(t0)
	t1 := time.Now()
	if _, err := core.RunDistributed(ctx, dec, in.frames[0], distOpts); err != nil {
		return nil, st, err
	}
	st.firstFrame = time.Since(t1)
	st.total = time.Since(t0)
	return &distInst{in: in, dec: dec}, st, nil
}

func (s *distInst) run(ctx context.Context, i int) (result, time.Duration, error) {
	r := result{frame: i % len(s.in.frames)}
	t0 := time.Now()
	res, err := core.RunDistributed(ctx, s.dec, s.in.frames[r.frame], distOpts)
	d := time.Since(t0)
	if err != nil {
		return r, d, err
	}
	r.state, r.final = res.State, res.Step2
	addEstimates(&r.c, res.Step1)
	addEstimates(&r.c, res.Step2)
	t := res.Timings
	reported := t.Map + t.Acquire + t.Step1 + t.Remap + t.Redistribute + t.Exchange + t.Step2 + t.Aggregate
	r.c[cLead] = float64(t.Total - reported)
	r.c[cMap] = float64(t.Map)
	r.c[cAcquire] = float64(t.Acquire)
	r.c[cStep1] = float64(t.Step1)
	r.c[cRemap] = float64(t.Remap)
	r.c[cRedistribute] = float64(t.Redistribute)
	r.c[cExchange] = float64(t.Exchange)
	r.c[cStep2] = float64(t.Step2)
	r.c[cAggregate] = float64(t.Aggregate)
	r.c[cWireBytes] = float64(res.WireBytes)
	r.c[cWireMsgs] = float64(res.WireMessages)
	r.c[cMigrations] = float64(len(res.Migrated))
	r.c[cImbalance] = res.Step2Mapping.Imbalance
	r.c[cEdgeCut] = res.Step2Mapping.EdgeCut
	return r, d, nil
}
