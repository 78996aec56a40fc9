package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// row is one reported number, in print order.
type row struct {
	name  string
	value float64
	unit  string
}

// metric is a row as the result line and the result files carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toMap(rows []row) map[string]metric {
	m := make(map[string]metric, len(rows))
	for _, r := range rows {
		m[r.name] = metric{r.value, r.unit}
	}
	return m
}

func printRows(w io.Writer, rows []row) {
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", r.name, r.value, r.unit)
	}
}

const (
	nsPerUS = float64(time.Microsecond)
	nsPerMS = float64(time.Millisecond)
)

// perLayer assembles the per-layer metrics of a traced run: counts from the
// program's exported result fields, per operation attempted; times from
// the durations the program reports and from the layer replay. A layer the
// workload never enters reports 0.
func (t *tally) perLayer(setups []setupTimes, ly *layers, heapLiveMiB float64) []row {
	ops := float64(t.attempted)
	c := &t.c
	per := func(k counter) float64 { return ratio(c[k], ops) }
	opMean := t.meanOpMS()
	tailMS, tailPct := tail(t.opMS)
	roundP50 := t.perRound(func(r roundStats) float64 { return r.p50ms })
	roundYard := t.perRound(func(r roundStats) float64 { return r.yardMS })
	st := setups[len(setups)-1]
	solves := c[cGainRefresh] + c[cGainSkip]
	stepMS := (per(cStep1) + per(cStep2)) / nsPerMS
	elsewhereMS := (per(cMap) + per(cRemap) + per(cAcquire) + per(cRedistribute) + per(cExchange)) / nsPerMS
	otherMS := 0.0
	if stepMS > 0 {
		otherMS = opMean - stepMS - elsewhereMS
	}
	fMeas, fSparse := ly.warmSplit()
	selfFrac := 1 - fMeas - fSparse
	if t.w.coldOps {
		selfFrac = 1 - ratio(ly.coldMeas+ly.coldSparse, ly.estimateCold)
	}

	return []row{
		{"gridse.op_ms_p50_raw", median(roundP50), "ms"},
		{"gridse.yardstick_ms", median(roundYard), "ms"},
		{"gridse.op_ms_tail", tailMS, "ms"},
		{"gridse.tail_pct", tailPct, "%"},
		{"gridse.op_ms_round_spread", relSpread(roundP50), "1"},
		{"gridse.heap_live_mib", heapLiveMiB, "MiB"},
		{"gridse.vm_err_mpu", 1e3 * math.Sqrt(ratio(t.vmSq, float64(t.angN))), "mpu"},
		{"gridse.inputgen_s", t.in.total.Seconds(), "s"},
		{"gridse.trace_overhead_frac", ratio(median(t.tracedMS), median(t.opMS)) - 1, "1"},

		{"grid.build_ms", ms(t.in.gridBuild), "ms"},
		{"powerflow.solve_ms", ms(t.in.pfSolve), "ms"},
		{"powerflow.iters", float64(t.in.pfIters), "count"},
		{"scada.frame_gen_ms", ms(t.in.frameGen), "ms"},

		{"meas.model_build_us", ly.modelBuild / nsPerUS, "us"},
		{"meas.jacplan_build_us", ly.jacPlanBuild / nsPerUS, "us"},
		{"meas.update_values_us", ly.updateValues / nsPerUS, "us"},
		{"meas.eval_us", ly.eval / nsPerUS, "us"},
		{"meas.jac_refresh_us", ly.jacRefresh / nsPerUS, "us"},
		{"meas.h_nnz", float64(ly.hNNZ), "count"},

		{"sparse.gainplan_build_ms", ly.gainPlanBuild / nsPerMS, "ms"},
		{"sparse.gain_refresh_us", ly.gainRefresh / nsPerUS, "us"},
		{"sparse.g_nnz", float64(ly.gNNZ), "count"},
		{"sparse.matvec_us", ly.matvec / nsPerUS, "us"},
		{"sparse.matvec_bsr_us", ly.matvecBSR / nsPerUS, "us"},
		// Bytes from array sizes, not from hardware counters.
		{"sparse.matvec_gbps_computed", ratio(ly.matvecBytes, ly.matvec), "GB/s"},
		{"sparse.jacobi_refresh_us", ly.jacobiRefresh / nsPerUS, "us"},
		{"sparse.jacobi_apply_us", ly.jacobiApply / nsPerUS, "us"},
		{"sparse.ic0_build_us", ly.ic0Build / nsPerUS, "us"},
		{"sparse.ic0_refresh_us", ly.ic0Refresh / nsPerUS, "us"},
		{"sparse.ic0_apply_us", ly.ic0Apply / nsPerUS, "us"},
		{"sparse.cg_solve_us", ly.cgSolve / nsPerUS, "us"},
		{"sparse.cg_iters_per_solve", float64(ly.cgIters), "count"},
		{"sparse.batch_matvecs_per_op", per(cBatchMatVecs), "count"},
		{"sparse.compact_frac", ratio(c[cCompactedMatVecs], c[cBatchMatVecs]), "1"},

		{"wls.estimate_cold_ms", ly.estimateCold / nsPerMS, "ms"},
		{"wls.estimate_warm_ms", ly.estimateWarm / nsPerMS, "ms"},
		{"wls.self_frac", selfFrac, "1"},
		{"wls.gn_iters_per_op", per(cGN), "count"},
		{"wls.cg_iters_per_op", per(cCG), "count"},
		{"wls.gain_skip_frac", ratio(c[cGainSkip], solves), "1"},
		{"wls.precond_skip_frac", ratio(c[cPrecondSkip], solves), "1"},
		{"wls.reuse_fallbacks_per_op", per(cReuseFallback), "count"},
		{"wls.batch_frac", ratio(c[cBatched], c[cEstimated]), "1"},
		{"wls.batch_fallbacks_per_op", per(cBatchFallbacks), "count"},
		{"wls.reanchors_per_op", per(cReanchors), "count"},

		{"core.decompose_ms", ms(st.decompose), "ms"},
		{"core.first_frame_ms", ms(st.firstFrame), "ms"},
		{"core.step1_ms", per(cStep1) / nsPerMS, "ms"},
		{"core.step2_ms", per(cStep2) / nsPerMS, "ms"},
		{"core.other_ms", otherMS, "ms"},
		{"core.aggregate_us", ly.aggregate / nsPerUS, "us"},
		{"core.packet_codec_us", ly.packetCodec / nsPerUS, "us"},
		{"core.exchange_bytes_per_op", per(cExchBytes), "B"},
		{"core.exchange_msgs_per_op", per(cExchMsgs), "count"},
		{"core.skeleton_builds_per_op", per(cSkeletons), "count"},

		{"partition.map_us", (per(cMap) + per(cRemap)) / nsPerUS, "us"},
		{"partition.imbalance", per(cImbalance), "1"},
		{"partition.edge_cut", per(cEdgeCut), "1"},
		{"partition.migrations_per_op", per(cMigrations), "count"},

		{"medici.acquire_ms", per(cAcquire) / nsPerMS, "ms"},
		{"medici.exchange_ms", per(cExchange) / nsPerMS, "ms"},
		{"medici.redistribute_us", per(cRedistribute) / nsPerUS, "us"},
		{"medici.wire_bytes_per_op", per(cWireBytes), "B"},
		{"medici.wire_msgs_per_op", per(cWireMsgs), "count"},
		{"medici.us_per_msg", ratio(c[cAcquire]+c[cRedistribute]+c[cExchange], c[cWireMsgs]) / nsPerUS, "us"},
		{"medici.relay_overhead_us_1k", ly.relay1K / nsPerUS, "us"},
		{"medici.relay_overhead_ms_1m", ly.relay1M / nsPerMS, "ms"},

		{"cluster.testbed_up_ms", ly.testbed / nsPerMS, "ms"},

		{"contingency.cases_per_op", per(cCases), "count"},
		{"contingency.estimated_per_op", per(cEstimated), "count"},
		{"contingency.case_ms", ratio(opMean*ops, c[cEstimated]), "ms"},
		{"contingency.prime_s", st.prime.Seconds(), "s"},
		{"contingency.warm_start_frac", ratio(c[cWarmStarts], c[cEstimated]), "1"},
		{"contingency.ratings_ms", ms(t.in.ratingsTime), "ms"},
	}
}

// meanOpMS is the mean operation time over every operation attempted,
// traced or not: the base the per-operation counters share.
func (t *tally) meanOpMS() float64 {
	return ratio(sum(t.opMS)+sum(t.tracedMS), float64(t.attempted))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// shares splits the mean traced operation among the layers along the steps
// that block the result. What the operation's own spans show — the steps
// and phases the program reports, and the operation's self time, which is
// core's orchestration — is taken from the trace. Estimation time is split
// among meas, sparse and wls in the proportions the layer replay found on
// the representative model. With coldOps no span lies inside the operation
// and every share is replayed. share.sum adds the parts up: an independent
// reconstruction of the operation with coldOps; elsewhere it is 1 unless
// the program reports phases that overrun the operation they belong to.
func (t *tally) shares(ly *layers) []row {
	self := selfByName(t.tr.spans)
	n := float64(len(t.tracedMS))
	per := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += self[name]
		}
		return ratio(ms(d), n)
	}
	op := ratio(sum(t.tracedMS), n)
	if t.w.coldOps {
		// Replay times are medians, so the operation is its median too.
		op = median(t.tracedMS)
	}
	var rows []row
	total := 0.0
	add := func(layer string, v float64) {
		rows = append(rows, row{"share." + layer, ratio(v, op), "1"})
		total += v
	}
	if t.w.coldOps {
		add("meas", (ly.modelBuild+ly.coldMeas)/nsPerMS)
		add("sparse", ly.coldSparse/nsPerMS)
		add("wls", (ly.estimateCold-ly.coldMeas-ly.coldSparse)/nsPerMS)
	} else {
		est := per("core.step1", "core.step2")
		core := per("gridse.op", "core.aggregate")
		if est == 0 {
			// screen118 reports no durations: the whole sweep is estimation, with
			// the pool's own bookkeeping inside the wls share.
			est, core = core, 0
		}
		testbed := ly.testbed / nsPerMS
		fMeas, fSparse := ly.warmSplit()
		add("meas", est*fMeas)
		add("sparse", est*fSparse)
		add("wls", est*(1-fMeas-fSparse))
		add("core", core-testbed)
		add("medici", per("medici.acquire", "medici.redistribute", "medici.exchange"))
		add("partition", per("partition.map", "partition.remap"))
		add("cluster", testbed)
	}
	rows = append(rows, row{"share.sum", ratio(total, op), "1"})
	return rows
}
