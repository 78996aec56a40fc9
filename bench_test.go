// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md. Metrics beyond ns/op are attached with b.ReportMetric
// (imbalance ratios, overhead per MB, iteration counts), so the bench
// output doubles as the experiment record.
package gridse_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/contingency"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/partition"
	"repro/internal/powerflow"
	"repro/internal/sparse"
	"repro/internal/wls"
)

var (
	fixtureOnce sync.Once
	fixture118  *experiments.Fixture
	fixtureErr  error
)

func benchFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture118, fixtureErr = experiments.NewFixture(9, 1.0, 1)
	})
	if fixtureErr != nil {
		b.Fatalf("fixture: %v", fixtureErr)
	}
	return fixture118
}

// BenchmarkTable1Decomposition regenerates Table I: decomposing IEEE-118
// into 9 subsystems and building the weighted decomposition graph.
func BenchmarkTable1Decomposition(b *testing.B) {
	n := grid.Case118()
	for i := 0; i < b.N; i++ {
		dec, err := core.Decompose(n, 9, core.DecomposeOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		t := experiments.RunTable1(&experiments.Fixture{Net: n, Dec: dec})
		if len(t.VertexWeights) != 9 {
			b.Fatal("wrong table shape")
		}
	}
}

// freshDecomposition returns the fixture on a decomposition that has mapped
// nothing yet — the fixture's own split, rebuilt off the clock. A
// decomposition remembers its mappings, so without this every iteration of
// the Table2 / Fig4 / Fig5 benchmarks after the first would time a
// remembered mapping being copied (0.1 µs, which is what a frame after the
// first pays) instead of the mapping.
func freshDecomposition(b *testing.B, fx *experiments.Fixture) *experiments.Fixture {
	b.Helper()
	b.StopTimer()
	dec, err := core.DecomposeWithParts(fx.Net, len(fx.Dec.Subsystems), fx.Dec.Owner, 1)
	if err != nil {
		b.Fatal(err)
	}
	fresh := &experiments.Fixture{Net: fx.Net, Truth: fx.Truth, Dec: dec, Meas: fx.Meas}
	b.StartTimer()
	return fresh
}

// BenchmarkTable2Mapping regenerates Table II: naive vs cost-model mapping
// bus counts per cluster. Reports both imbalances.
func BenchmarkTable2Mapping(b *testing.B) {
	fx := benchFixture(b)
	var t experiments.Table2
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.RunTable2(freshDecomposition(b, fx), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(imbalanceOf(t.WithoutMapping), "imbalance-naive")
	b.ReportMetric(imbalanceOf(t.WithMapping), "imbalance-mapped")
}

func imbalanceOf(buses []int) float64 {
	total, maxB := 0, 0
	for _, x := range buses {
		total += x
		if x > maxB {
			maxB = x
		}
	}
	return float64(maxB) / (float64(total) / float64(len(buses)))
}

// BenchmarkTable3MediciLocal regenerates Table III: direct-TCP vs
// through-middleware transfer on loopback. Sub-benchmarks per payload size;
// the per-size overhead is reported as ms.
func BenchmarkTable3MediciLocal(b *testing.B) {
	for _, sz := range []int{1 << 20, 4 << 20, 16 << 20} {
		b.Run(sizeName(sz), func(b *testing.B) {
			var last medici.OverheadSample
			for i := 0; i < b.N; i++ {
				s, err := medici.MeasureOverhead(context.Background(), nil, sz, 0)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.SetBytes(int64(sz))
			b.ReportMetric(last.Overhead.Seconds()*1e3, "overhead-ms")
		})
	}
}

// BenchmarkTable4MediciRemote regenerates Table IV on the shaped
// lab-network profile.
func BenchmarkTable4MediciRemote(b *testing.B) {
	tr := cluster.NewShapedTransport(cluster.LabNetworkProfile(), nil)
	for _, sz := range []int{1 << 20, 4 << 20} {
		b.Run(sizeName(sz), func(b *testing.B) {
			var last medici.OverheadSample
			for i := 0; i < b.N; i++ {
				s, err := medici.MeasureOverhead(context.Background(), tr, sz, 0)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.SetBytes(int64(sz))
			b.ReportMetric(last.Overhead.Seconds()*1e3, "overhead-ms")
		})
	}
}

func sizeName(sz int) string {
	switch {
	case sz >= 1<<20:
		return itoa(sz>>20) + "MiB"
	default:
		return itoa(sz) + "B"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig4PartitionStep1 regenerates Figure 4 and reports the
// load-imbalance ratio (paper: 1.035).
func BenchmarkFig4PartitionStep1(b *testing.B) {
	fx := benchFixture(b)
	var f experiments.MappingFigure
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.RunFig4(freshDecomposition(b, fx), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.Imbalance, "imbalance")
}

// BenchmarkFig5RepartitionStep2 regenerates Figure 5 and reports the
// post-repartition imbalance (paper: 1.079) and migration count (paper: 2).
func BenchmarkFig5RepartitionStep2(b *testing.B) {
	fx := benchFixture(b)
	var f experiments.MappingFigure
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.RunFig5(freshDecomposition(b, fx), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.Imbalance, "imbalance")
	b.ReportMetric(float64(len(f.Migrated)), "migrations")
}

// BenchmarkFig8OverheadLinearity regenerates Figure 8's series and reports
// the overhead-per-MB slope at two sizes — a linear trend gives similar
// values (the paper's key observation).
func BenchmarkFig8OverheadLinearity(b *testing.B) {
	var small, large medici.OverheadSample
	for i := 0; i < b.N; i++ {
		var err error
		small, err = medici.MeasureOverhead(context.Background(), nil, 2<<20, 0)
		if err != nil {
			b.Fatal(err)
		}
		large, err = medici.MeasureOverhead(context.Background(), nil, 16<<20, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(small.Overhead.Seconds()*1e3/2, "ms-per-MiB-small")
	b.ReportMetric(large.Overhead.Seconds()*1e3/16, "ms-per-MiB-large")
}

// BenchmarkExpr2IterationModel regenerates the Expression (2) calibration
// and reports the fitted g1/g2 (paper: 3.7579 / 5.2464 on their testbed).
func BenchmarkExpr2IterationModel(b *testing.B) {
	var fit experiments.Expr2Fit
	var err error
	for i := 0; i < b.N; i++ {
		fit, err = experiments.RunExpr2([]float64{1, 2, 3, 4}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.G1, "g1")
	b.ReportMetric(fit.G2, "g2")
}

// BenchmarkEndToEndDSE regenerates the headline comparison: the full
// distributed architecture run (map -> step1 -> remap -> exchange ->
// step2 -> aggregate) on the 3-cluster testbed.
func BenchmarkEndToEndDSE(b *testing.B) {
	fx := benchFixture(b)
	var e experiments.EndToEnd
	var err error
	for i := 0; i < b.N; i++ {
		e, err = experiments.RunEndToEnd(context.Background(), fx, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(e.CentralizedTime.Seconds()*1e3, "centralized-ms")
	b.ReportMetric(e.DistributedTime.Seconds()*1e3, "distributed-ms")
	b.ReportMetric(float64(e.WireBytes), "wire-bytes")
	b.ReportMetric(float64(e.WireMessages), "wire-msgs")
}

// BenchmarkCentralizedWLS118 is the baseline the paper compares against:
// one full-system WLS solve on IEEE-118. The ldl row is what wls.Options{}
// runs — the lagged tier, whose last step reuses the previous gain and
// factor — and ldl-exact is exact Gauss–Newton (ReuseOff).
func BenchmarkCentralizedWLS118(b *testing.B) {
	fx := benchFixture(b)
	for _, f := range []struct {
		name string
		opts wls.Options
	}{
		{"ldl", wls.Options{}},
		{"ldl-exact", wls.Options{GainReuse: wls.ReuseOff}},
	} {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CentralizedEstimate(context.Background(), fx.Net, fx.Meas, f.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCentralizedWLSWECC12 is the same baseline at 1 416 buses — what
// the gate's central_wecc12 workload runs: a cold solve, so the model, both
// symbolic plans and the LDLᵀ analysis are paid inside every operation.
// gn-iters and lagged count its Gauss–Newton steps and those that reused
// the previous gain and factor.
func BenchmarkCentralizedWLSWECC12(b *testing.B) {
	benchCentralizedWECC(b, 12, wls.Options{})
}

// BenchmarkCentralizedWLSWECC12Exact is the same solve under exact
// Gauss–Newton (ReuseOff): a gain refresh and a factorization every step.
func BenchmarkCentralizedWLSWECC12Exact(b *testing.B) {
	benchCentralizedWECC(b, 12, wls.Options{GainReuse: wls.ReuseOff})
}

// BenchmarkCentralizedWLSWECC12Serial is the default solve with the gain
// refresh, the right-hand side, the LDLᵀ analysis and the factor refresh
// kept off the kernel pool (Workers 1). At -cpu 1 it reads what the default
// row reads; at -cpu 2 it says what the pool buys inside one cold solve.
func BenchmarkCentralizedWLSWECC12Serial(b *testing.B) {
	benchCentralizedWECC(b, 12, wls.Options{Workers: 1})
}

// BenchmarkCentralizedWLSWECC37 is the cold centralized solve at 37 areas,
// 4 366 buses, and …Serial the same with Workers 1: the pool's gain at the
// larger size.
func BenchmarkCentralizedWLSWECC37(b *testing.B) {
	benchCentralizedWECC(b, 37, wls.Options{})
}

func BenchmarkCentralizedWLSWECC37Serial(b *testing.B) {
	benchCentralizedWECC(b, 37, wls.Options{Workers: 1})
}

func benchCentralizedWECC(b *testing.B, areas int, opts wls.Options) {
	dec, frames := weccDSEFixture(b, areas, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var res *wls.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = core.CentralizedEstimate(context.Background(), dec.Net, frames[0], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "gn-iters")
	b.ReportMetric(float64(res.GainSkips), "lagged")
}

// namedModel is a centralized measurement model at one benchmark size.
type namedModel struct {
	name string
	mod  *meas.Model
}

// centralizedModels returns the centralized model of one metered frame at
// both sizes the kernel benchmarks run at: IEEE-118 and the 12-area,
// 1 416-bus synthetic WECC.
func centralizedModels(b *testing.B) []namedModel {
	b.Helper()
	fx := benchFixture(b)
	dec, frames := weccDSEFixture(b, 12, 1)
	var out []namedModel
	for _, c := range []struct {
		name string
		net  *grid.Network
		ms   []meas.Measurement
	}{
		{"ieee118", fx.Net, fx.Meas},
		{"synth-wecc-12", dec.Net, frames[0]},
	} {
		mod, err := meas.NewModel(c.net, c.ms, c.net.SlackIndex(), 0)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, namedModel{c.name, mod})
	}
	return out
}

// BenchmarkGainPlanBuild times the symbolic half of G = HᵀWH alone — the
// build a cold solve's LDLᵀ analysis waits for — on the centralized Jacobian
// skeleton at both sizes. contribs is Σd² over H's rows, what the sorted
// build once walked; walked is what the build's stamped walk visits (see
// gainPlanWalk).
func BenchmarkGainPlanBuild(b *testing.B) {
	for _, c := range centralizedModels(b) {
		h := c.mod.NewJacobianPlan().H
		contribs := 0
		for m := 0; m < h.Rows; m++ {
			contribs += h.RowNNZ(m) * h.RowNNZ(m)
		}
		walked := gainPlanWalk(h)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sparse.NewGainPlan(h).G.Rows != h.Cols {
					b.Fatal("gain plan of the wrong dimension")
				}
			}
			b.ReportMetric(float64(contribs), "contribs")
			b.ReportMetric(float64(walked), "walked")
		})
	}
}

// gainPlanWalk counts the H entries NewGainPlan's stamped walk visits: for
// each column r, the columns before r of every row with an entry there, rows
// ascending, less each prefix equal to the one walked before it — at most
// Σ d(d−1)/2 over H's rows.
func gainPlanWalk(h *sparse.CSR) int {
	prefixes := make([][][]int, h.Cols)
	for m := 0; m < h.Rows; m++ {
		row := h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]]
		for p, c := range row {
			prefixes[c] = append(prefixes[c], row[:p])
		}
	}
	walked := 0
	for _, col := range prefixes {
		var last []int
		for _, pre := range col {
			if !slices.Equal(pre, last) {
				walked, last = walked+len(pre), pre
			}
		}
	}
	return walked
}

// BenchmarkGainKernels118 isolates the two hot gain-matrix kernels of the
// PCG solve — numeric refresh G = HᵀWH and mat-vec y = G·x — on the
// centralized gain as the engine stores it: scalar CSR in natural order.
// The IEEE-118 rows keep the names the records know; the -synth-wecc-12 rows
// are the same kernels at 1 416 buses, where a refresh is a third of what a
// cold solve has left. A refresh reports products, the multiply-adds it
// sums: Σ d(d+1)/2 over H's rows, G's lower triangle and diagonal.
func BenchmarkGainKernels118(b *testing.B) {
	for _, c := range centralizedModels(b) {
		suffix := ""
		if c.name != "ieee118" {
			suffix = "-" + c.name
		}
		hj := c.mod.Jacobian(c.mod.FlatVec())
		w := c.mod.Weights()
		gp := sparse.NewGainPlan(hj)
		g := gp.Refresh(hj, w)
		products := 0
		for m := 0; m < hj.Rows; m++ {
			products += hj.RowNNZ(m) * (hj.RowNNZ(m) + 1) / 2
		}

		b.Run("refresh/csr"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gp.Refresh(hj, w)
			}
			b.ReportMetric(float64(products), "products")
		})
		x := make([]float64, g.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)
		}
		y := make([]float64, g.Rows)
		b.Run("matvec/csr"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.MulVec(y, x)
			}
		})
	}
}

// BenchmarkPowerFlow118 times the ground-truth generator.
func BenchmarkPowerFlow118(b *testing.B) {
	n := grid.Case118()
	for i := 0; i < b.N; i++ {
		if _, err := powerflow.Solve(n, powerflow.Options{FlatStart: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationMapping compares the end-to-end distributed run with the
// cost-model mapping vs the naive contiguous assignment (Table II's
// motivation).
func BenchmarkAblationMapping(b *testing.B) {
	fx := benchFixture(b)
	for _, mode := range []struct {
		name      string
		noMapping bool
	}{{"mapped", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var imb float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunDistributed(context.Background(), fx.Dec, fx.Meas, core.DistributedOptions{
					Clusters: 3, NoMapping: mode.noMapping,
				})
				if err != nil {
					b.Fatal(err)
				}
				imb = res.Step1Mapping.Imbalance
			}
			b.ReportMetric(imb, "imbalance")
		})
	}
}

// BenchmarkRunDistributedFrames serves frames through RunDistributed on one
// decomposition — IEEE-118 in 9 subsystems on 3 loopback clusters, the
// gate's dist118 — after an untimed first frame has brought the kept testbed
// up and dialed its links, so it times the steady-state frame (DESIGN §12).
func BenchmarkRunDistributedFrames(b *testing.B) {
	b.Run("ieee118", func(b *testing.B) {
		fx := freshDecomposition(b, benchFixture(b))
		defer fx.Dec.Close()
		opts := core.DistributedOptions{Clusters: 3}
		if _, err := core.RunDistributed(context.Background(), fx.Dec, fx.Meas, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunDistributed(context.Background(), fx.Dec, fx.Meas, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSensitivity sweeps the sensitive-internal-bus radius:
// larger radii exchange more state (bytes) for better Step-2 anchoring.
func BenchmarkAblationSensitivity(b *testing.B) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, radius := range []int{1, 2, 3} {
		b.Run("radius-"+itoa(radius), func(b *testing.B) {
			dec, err := core.Decompose(n, 9, core.DecomposeOptions{Seed: 1, SensitivityRadius: radius})
			if err != nil {
				b.Fatal(err)
			}
			plan := meas.FullPlan().Build(n)
			plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
			ms, err := meas.Simulate(n, plan, pf.State, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			var bytes int
			for i := 0; i < b.N; i++ {
				res, err := core.RunDSE(context.Background(), dec, ms, core.DSEOptions{})
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.ExchangeBytes
			}
			b.ReportMetric(float64(bytes), "exchange-bytes")
		})
	}
}

// BenchmarkRoundsStudy regenerates the Step-2 convergence study and
// reports the boundary RMS after 1 round and after diameter rounds.
func BenchmarkRoundsStudy(b *testing.B) {
	fx := benchFixture(b)
	var pts []experiments.RoundsPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.RunRoundsStudy(context.Background(), fx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].BoundaryRMSVa*1e6, "round1-rms-microrad")
	b.ReportMetric(pts[len(pts)-1].BoundaryRMSVa*1e6, "final-rms-microrad")
}

// BenchmarkDSE118Rounds runs the in-process two-step DSE on IEEE-118
// across Step-2 round counts. With the session layer, every round past
// the first is a value-only refresh of the Step-2 skeletons with a
// warm-started solve, so the marginal round cost is the number to watch.
func BenchmarkDSE118Rounds(b *testing.B) {
	fx := benchFixture(b)
	for _, rounds := range []int{1, 2, 4} {
		b.Run("rounds-"+itoa(rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunDSE(context.Background(), fx.Dec, fx.Meas, core.DSEOptions{Rounds: rounds}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrackerFrames measures the steady-state tracked-frame cost:
// the first frame (symbolic build — skeletons, models, solver plans) is
// paid before the timer starts, so every timed iteration is a
// value-refreshed, warm-started full DSE pass on the pinned session under
// the tracker's default numeric-reuse tier (ReuseGain). The reported
// gain-skip-frac is the fraction of gain-solve iterations that ran on the
// previous frame's G and factor. Its one row, ldl, is 27 solves of ~10 µs,
// which the phase runner spreads over the caller and its helpers, so
// -cpu 1,2 reads what a second core buys a 13-bus subsystem.
func BenchmarkTrackerFrames(b *testing.B) {
	fx := benchFixture(b)
	b.Run("ldl", func(b *testing.B) {
		benchTrackedFrames(b, fx.Dec, [][]meas.Measurement{fx.Meas}, core.DSEOptions{Rounds: 2})
	})
}

// reuseModes is the numeric-reuse benchmark axis.
var reuseModes = []struct {
	name string
	kind wls.GainReuseKind
}{
	{"off", wls.ReuseOff},
	{"gain", wls.ReuseGain},
}

// BenchmarkTrackerFramesReuse crosses the steady-state tracked frame with
// the numeric-reuse tier, isolating what the lagged tier saves on the hot
// tracking path: IEEE-118 re-tracking one frame (every step inside the
// drift gate), and the 1 416-bus 12-area and 4 366-bus 37-area synthetic
// WECC cycling eight noise draws — the 12-area size and frame-to-frame
// movement are where wls.ReuseGainGateDefault was chosen (DESIGN §10).
// gain-rounds-1 is the tracker at its defaults: one Step-2 round.
func BenchmarkTrackerFramesReuse(b *testing.B) {
	fx := benchFixture(b)
	for _, mode := range reuseModes {
		b.Run(mode.name, func(b *testing.B) {
			benchTrackedFrames(b, fx.Dec, [][]meas.Measurement{fx.Meas}, core.DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: mode.kind}})
		})
	}

	for _, areas := range []int{12, 37} {
		dec, frames := weccDSEFixture(b, areas, 8)
		name := "synth-wecc-" + itoa(areas) + "/"
		for _, mode := range reuseModes {
			b.Run(name+mode.name, func(b *testing.B) {
				benchTrackedFrames(b, dec, frames, core.DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: mode.kind}})
			})
		}
		b.Run(name+"gain-rounds-1", func(b *testing.B) {
			benchTrackedFrames(b, dec, frames, core.DSEOptions{Rounds: 1})
		})
	}
}

// BenchmarkCentralizedTracked is the centralized side of a tracked frame,
// to read beside TrackerFramesReuse/synth-wecc-*/gain: one wls engine kept
// across the eight frames of weccDSEFixture, each frame a
// Model.UpdateValues and a solve under the default options warm-started
// from the last estimate behind WarmStartGate, after one untimed pass.
func BenchmarkCentralizedTracked(b *testing.B) {
	for _, areas := range []int{12, 37} {
		dec, frames := weccDSEFixture(b, areas, 8)
		b.Run("synth-wecc-"+itoa(areas), func(b *testing.B) {
			mod, err := meas.NewModel(dec.Net, frames[0], dec.Net.SlackIndex(), 0)
			if err != nil {
				b.Fatal(err)
			}
			eng := wls.NewEngine(mod)
			res, err := eng.Estimate(wls.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last := slices.Clone(res.X)
			var iters, lagged int
			frame := func(k int) {
				if err := mod.UpdateValues(frames[k%len(frames)]); err != nil {
					b.Fatal(err)
				}
				res, err := eng.Estimate(wls.Options{X0: last, X0Gate: wls.WarmStartGate})
				if err != nil {
					b.Fatal(err)
				}
				copy(last, res.X)
				iters += res.Iterations
				lagged += res.GainSkips
			}
			for k := range frames {
				frame(k)
			}
			iters, lagged = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame(i)
			}
			b.ReportMetric(float64(iters)/float64(b.N), "gn-iters")
			b.ReportMetric(float64(lagged)/float64(b.N), "lagged")
		})
	}
}

// benchTrackedFrames times Tracker.Process cycling through frames, after
// one untimed pass over them, and reports the fraction of gain-solve
// iterations that ran on lagged numerics.
func benchTrackedFrames(b *testing.B, dec *core.Decomposition, frames [][]meas.Measurement, opts core.DSEOptions) {
	tracker := core.NewTracker(dec, opts)
	for _, f := range frames {
		if _, err := tracker.Process(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var skips, total int
	for i := 0; i < b.N; i++ {
		res, err := tracker.Process(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		skips += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips
		total += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips +
			res.Step1Stats.GainRefreshes + res.Step2Stats.GainRefreshes
	}
	if total > 0 {
		b.ReportMetric(float64(skips)/float64(total), "gain-skip-frac")
	}
}

// BenchmarkDSE118RoundsReuse crosses the standalone 4-round DSE run with
// the numeric-reuse tier: rounds past the first re-solve nearly identical
// Step-2 systems, so the drift gate engages within a single run even
// without tracking.
func BenchmarkDSE118RoundsReuse(b *testing.B) {
	fx := benchFixture(b)
	for _, mode := range reuseModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var skips, total int
			for i := 0; i < b.N; i++ {
				res, err := core.RunDSE(context.Background(), fx.Dec, fx.Meas,
					core.DSEOptions{Rounds: 4, WLS: wls.Options{GainReuse: mode.kind}})
				if err != nil {
					b.Fatal(err)
				}
				skips += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips
				total += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips +
					res.Step1Stats.GainRefreshes + res.Step2Stats.GainRefreshes
			}
			if total > 0 {
				b.ReportMetric(float64(skips)/float64(total), "gain-skip-frac")
			}
		})
	}
}

// BenchmarkGainReuse118 isolates the refresh-skip saving on one engine:
// the IEEE-118 centralized estimate is re-solved from its own solution —
// the numeric profile of a steady tracked frame — so under ReuseGain every
// timed solve skips the gain scatter and the preconditioner refresh.
func BenchmarkGainReuse118(b *testing.B) {
	fx := benchFixture(b)
	ref := fx.Net.SlackIndex()
	for _, mode := range reuseModes {
		b.Run(mode.name, func(b *testing.B) {
			mod, err := meas.NewModel(fx.Net, fx.Meas, ref, fx.Truth.Va[ref])
			if err != nil {
				b.Fatal(err)
			}
			eng := wls.NewEngine(mod)
			opts := wls.Options{GainReuse: mode.kind}
			cold, err := eng.Estimate(opts)
			if err != nil {
				b.Fatal(err)
			}
			opts.X0 = append([]float64(nil), cold.X...)
			b.ReportAllocs()
			b.ResetTimer()
			var skips, total int
			for i := 0; i < b.N; i++ {
				res, err := eng.Estimate(opts)
				if err != nil {
					b.Fatal(err)
				}
				skips += res.GainSkips
				total += res.GainSkips + res.GainRefreshes
			}
			if total > 0 {
				b.ReportMetric(float64(skips)/float64(total), "gain-skip-frac")
			}
		})
	}
}

// weccDSEFixture builds the areas-area synthetic WECC, one subsystem per
// area, and nFrames noise draws (seeds 1, 2, …) of its full metering plan
// with the PMUs DSE needs at the subsystem reference buses.
func weccDSEFixture(b *testing.B, areas, nFrames int) (*core.Decomposition, [][]meas.Measurement) {
	b.Helper()
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.DecomposeWithParts(n, areas, grid.AreaParts(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
	frames := make([][]meas.Measurement, nFrames)
	for k := range frames {
		if frames[k], err = meas.Simulate(n, plan, pf.State, 1, int64(1+k)); err != nil {
			b.Fatal(err)
		}
	}
	return dec, frames
}

// BenchmarkWECCScaleDSE runs the full DSE flow on multi-area synthetic
// interconnections — the paper's WECC ongoing-work scenario.
func BenchmarkWECCScaleDSE(b *testing.B) {
	for _, areas := range []int{4, 12} {
		b.Run("areas-"+itoa(areas), func(b *testing.B) {
			dec, frames := weccDSEFixture(b, areas, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunDSE(context.Background(), dec, frames[0], core.DSEOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContingencyPool118 measures the session-pooled what-if
// estimation sweep on IEEE-118: cold (a fresh pool each sweep, paying the
// base skeleton and a clone per outage, with allocations and bytes per
// sweep), prime (a fresh pool and two sweeps, the set-up the benchmark
// gate's screen118 times) and pooled (a primed pool alternating two
// telemetry frames, value-refresh + warm-start only). The /counter suffix
// names the one scheduling scheme; it stays so the rows chain with the
// committed BENCH records.
func BenchmarkContingencyPool118(b *testing.B) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		b.Fatal(err)
	}
	plan := meas.FullPlan().Build(n)
	frames := make([][]meas.Measurement, 2)
	for i := range frames {
		if frames[i], err = meas.Simulate(n, plan, pf.State, 1, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	ratings, err := contingency.AutoRatings(n, pf.State, 1.3, 0.3, contingency.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	popts := contingency.ParallelOptions{Workers: 4}
	b.Run("cold/counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool, err := contingency.NewPool(n, contingency.PoolOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pool.Screen(ctx, frames[i%2], ratings, nil, popts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prime/counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool, err := contingency.NewPool(n, contingency.PoolOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range frames {
				if _, _, err := pool.Screen(ctx, f, ratings, nil, popts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pooled/counter", func(b *testing.B) {
		pool, err := contingency.NewPool(n, contingency.PoolOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := pool.Screen(ctx, frames[0], ratings, nil, popts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		skips, total := 0, 0
		for i := 0; i < b.N; i++ {
			_, stats, err := pool.Screen(ctx, frames[i%2], ratings, nil, popts)
			if err != nil {
				b.Fatal(err)
			}
			if stats.SkeletonBuilds != 0 {
				b.Fatalf("pooled sweep rebuilt %d skeletons", stats.SkeletonBuilds)
			}
			skips += stats.GainSkips
			total += stats.GainSkips + stats.GainRefreshes
		}
		if total > 0 {
			b.ReportMetric(float64(skips)/float64(total), "gain-skip-frac")
		}
	})
}

// weccGain is the centralized gain matrix of the 12-area synthetic WECC
// (1 416 buses, n = 2 831 states) under the full SCADA plan at flat start —
// the size axis for the symbolic and factorization kernels, where the
// IEEE-118 gain is too small to show what an ordering or a factor costs.
func weccGain(b *testing.B) *sparse.CSR {
	b.Helper()
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ms := meas.FullPlan().Build(n)
	ref := n.SlackIndex()
	mod, err := meas.NewModel(n, ms, ref, 0)
	if err != nil {
		b.Fatal(err)
	}
	hj := mod.Jacobian(mod.FlatVec())
	return sparse.NewGainPlan(hj).Refresh(hj, mod.Weights())
}

// BenchmarkMinDegree times the fill-reducing ordering the LDLᵀ factor
// computes once per gain pattern — paid on every cold centralized solve — at
// both sizes. supervariables is the number of distinct row patterns, the
// vertices the elimination actually runs on (states is the matrix dimension),
// and factor-nnz the fill the ordering leaves.
func BenchmarkMinDegree(b *testing.B) {
	for _, c := range centralizedModels(b) {
		hj := c.mod.Jacobian(c.mod.FlatVec())
		g := sparse.NewGainPlan(hj).Refresh(hj, c.mod.Weights())
		f, err := sparse.AnalyzeLDL(g)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]int, g.Rows) // sorted column sets: the plan sorts G's rows
		for i := range rows {
			rows[i] = g.ColIdx[g.RowPtr[i]:g.RowPtr[i+1]]
		}
		slices.SortFunc(rows, slices.Compare[[]int])
		patterns := len(slices.CompactFunc(rows, slices.Equal[[]int]))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(sparse.MinDegree(g)) != g.Rows {
					b.Fatal("short permutation")
				}
			}
			b.ReportMetric(float64(g.Rows), "states")
			b.ReportMetric(float64(patterns), "supervariables")
			b.ReportMetric(float64(f.FactorNNZ()), "factor-nnz")
		})
	}
}

// BenchmarkLDLFactor splits the default preconditioner's cost on the
// WECC-scale gain into its three stages: symbolic analysis (ordering, whose
// elimination also gives the elimination tree and L's pattern, and the
// permuted upper triangle), numeric refactorization in place, and one
// permuted forward/diagonal/backward solve. refresh-pool is the
// refactorization with the elimination forest split over the shared pool,
// as the estimator runs it; parts is the pool's part count (1: serial).
// factor-nnz is the number of off-diagonals of L, against gain-lower-nnz in
// G's own lower triangle.
func BenchmarkLDLFactor(b *testing.B) {
	g := weccGain(b)
	f, err := sparse.NewLDL(g)
	if err != nil {
		b.Fatal(err)
	}
	z, r := make([]float64, g.Rows), make([]float64, g.Rows)
	for i := range r {
		r[i] = 1 + float64(i%7)
	}
	fill := func(b *testing.B) {
		b.ReportMetric(float64(f.FactorNNZ()), "factor-nnz")
		b.ReportMetric(float64((g.NNZ()-g.Rows)/2), "gain-lower-nnz")
	}
	b.Run("analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sparse.AnalyzeLDL(g); err != nil {
				b.Fatal(err)
			}
		}
		fill(b)
	})
	b.Run("refresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f.Refresh(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refresh-pool", func(b *testing.B) {
		pool := sparse.DefaultPool()
		fp, err := sparse.AnalyzeLDLPool(g, pool)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fp.RefreshPool(g, pool); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pool.Workers()), "parts")
	})
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Apply(z, r)
		}
	})
}

// BenchmarkGainSolve times one solve of G·Δx = HᵀW·r on a refreshed
// centralized gain at the flat start, at both sizes, the ways the estimator
// has run it: factor is the LDLᵀ substitution alone (a lagged step), and
// factor+check adds the residual test paid once per refactorization (a fresh
// step); factor-pcg is the CG call wrapped around the factor that both
// replaced, and jacobi-pcg the paper's solver. subst/op and matvec/op count
// the triangular substitutions and G mat-vecs one solve performs.
func BenchmarkGainSolve(b *testing.B) {
	for _, c := range centralizedModels(b) {
		mod := c.mod
		x := mod.FlatVec()
		hj, w := mod.Jacobian(x), mod.Weights()
		g := sparse.NewGainPlan(hj).Refresh(hj, w)
		r := mod.Eval(x)
		for i, m := range mod.Meas {
			r[i] = m.Value - r[i]
		}
		rhs := sparse.GainRHS(hj, w, r)
		f, err := sparse.NewLDL(g)
		if err != nil {
			b.Fatal(err)
		}
		jac, err := sparse.NewJacobi(g)
		if err != nil {
			b.Fatal(err)
		}
		dx, gx := make([]float64, g.Rows), make([]float64, g.Rows)
		work := sparse.NewCGWorkspace(g.Rows)
		report := func(b *testing.B, subst, matvec int) {
			b.ReportMetric(float64(subst), "subst/op")
			b.ReportMetric(float64(matvec), "matvec/op")
		}
		b.Run(c.name+"/factor", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Apply(dx, rhs)
			}
			report(b, 1, 0)
		})
		b.Run(c.name+"/factor+check", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Apply(dx, rhs)
				g.MulVec(gx, dx)
				sparse.Sub(gx, rhs, gx)
				if sparse.Norm2(gx) > 1e-10*sparse.Norm2(rhs) {
					b.Fatal("substitution fails the residual check")
				}
			}
			report(b, 1, 1)
		})
		for _, pc := range []struct {
			name  string
			pre   sparse.Preconditioner
			subst int // triangular substitutions per preconditioner apply
		}{{"factor-pcg", f, 1}, {"jacobi-pcg", jac, 0}} {
			b.Run(c.name+"/"+pc.name, func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					cg, err := sparse.CG(g, rhs, sparse.CGOptions{Tol: 1e-10, Precond: pc.pre, Work: work})
					if err != nil {
						b.Fatal(err)
					}
					iters = cg.Iterations
				}
				// CG applies its preconditioner once to start and once per
				// iteration, and multiplies by G once per iteration.
				report(b, pc.subst*(iters+1), iters)
			})
		}
	}
}

// BenchmarkCheckObservability times the structural observability check on
// one centralized frame's meters at both sizes: the unit-admittance
// Jacobian, its gain plan, the factor's analysis and one refresh (these
// sets need no pin). weak is the number of unobservable directions found.
func BenchmarkCheckObservability(b *testing.B) {
	for _, c := range centralizedModels(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var obs wls.Observability
			for i := 0; i < b.N; i++ {
				obs = wls.CheckObservability(c.mod)
			}
			b.ReportMetric(float64(obs.NState-obs.Rank), "weak")
		})
	}
}

// BenchmarkNormalizedResiduals times the residual covariance of the
// largest-normalized-residual test on one centralized estimate at both sizes:
// H and G refreshed at the estimate, G refactored on the engine's analysis and
// one substitution per measurement. ieee118-dense is the dense-LU assembly it
// replaced, kept here as the comparison row; at 1 416 buses that one is a
// 2 831² dense factor.
func BenchmarkNormalizedResiduals(b *testing.B) {
	for _, c := range centralizedModels(b) {
		eng := wls.NewEngine(c.mod)
		res, err := eng.Estimate(wls.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.NormalizedResiduals(res); err != nil {
					b.Fatal(err)
				}
			}
		})
		if c.name != "ieee118" {
			continue
		}
		b.Run(c.name+"-dense", func(b *testing.B) {
			b.ReportAllocs()
			hi := make([]float64, c.mod.NState())
			for i := 0; i < b.N; i++ {
				hj := c.mod.Jacobian(res.X)
				lu, err := sparse.Factor(sparse.Gain(hj, c.mod.Weights()).ToDense())
				if err != nil {
					b.Fatal(err)
				}
				for m := 0; m < hj.Rows; m++ {
					clear(hi)
					for k := hj.RowPtr[m]; k < hj.RowPtr[m+1]; k++ {
						hi[hj.ColIdx[k]] = hj.Val[k]
					}
					if _, err := lu.Solve(hi); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMeasKernel times the compiled measurement kernel on its own, at
// both sizes: h(x) alone, H(x) alone, the EvalInto+Refresh pair a refreshing
// Gauss–Newton iterate runs at one state, and the fused pass of a lagged one
// (h, r, J and HᵀW·r, no H). The state alternates between two
// vectors so every iteration pays its state load (a repeated state would be
// served from the load the plan already holds). trig/op is the number of
// sines and cosines evaluated per iteration, counted by the plan:
// two per distinct metered bus pair per load, against roughly 48 per branch
// for the pair under the per-measurement evaluator this kernel replaced.
//
// The P and Q rows of one bus or branch end sit next to each other in every
// plan we build, and the kernel takes such a pair as one step. The unpaired
// rows time the same measurements with every P row moved ahead of every Q
// row, so no pair forms: the single-row steps alone.
func BenchmarkMeasKernel(b *testing.B) {
	wecc, err := grid.SynthWECC(grid.SynthOptions{Areas: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []*grid.Network{grid.Case118(), wecc} {
		pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
		if err != nil {
			b.Fatal(err)
		}
		ms, err := meas.Simulate(n, meas.FullPlan().Build(n), pf.State, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		unpaired := make([]meas.Measurement, 0, len(ms))
		for _, q := range []bool{false, true} {
			for _, m := range ms {
				if (m.Kind == meas.Qinj || m.Kind == meas.Qflow) == q {
					unpaired = append(unpaired, m)
				}
			}
		}
		for _, set := range []struct {
			name string
			ms   []meas.Measurement
		}{{n.Name, ms}, {n.Name + "/unpaired", unpaired}} {
			ref := n.SlackIndex()
			mod, err := meas.NewModel(n, set.ms, ref, pf.State.Va[ref])
			if err != nil {
				b.Fatal(err)
			}
			pl := mod.NewJacobianPlan()
			xs := [2][]float64{mod.StateToVec(pf.State), mod.FlatVec()}
			h := make([]float64, mod.NMeas())
			r, z, w := make([]float64, mod.NMeas()), make([]float64, mod.NMeas()), mod.Weights()
			for i, m := range mod.Meas {
				z[i] = m.Value
			}
			grad := make([]float64, mod.NState()+1)
			for _, op := range []struct {
				name string
				run  func(x []float64)
			}{
				{"eval", func(x []float64) { pl.EvalInto(h, x) }},
				{"refresh", func(x []float64) { pl.Refresh(x) }},
				{"eval+refresh", func(x []float64) { pl.EvalInto(h, x); pl.Refresh(x) }},
				{"grad", func(x []float64) { pl.GradInto(grad, h, r, x, z, w) }},
			} {
				b.Run(set.name+"/"+op.name, func(b *testing.B) {
					b.ReportAllocs()
					trig := pl.TrigEvals()
					for i := 0; i < b.N; i++ {
						op.run(xs[i&1])
					}
					b.ReportMetric(float64(pl.TrigEvals()-trig)/float64(b.N), "trig/op")
				})
			}
		}
	}
}

// BenchmarkPartitionerScales exercises the multilevel partitioner on a
// large random graph (well beyond the 9-vertex paper graph).
func BenchmarkPartitionerScales(b *testing.B) {
	g := partition.NewGraph(2000)
	// Ring + chords, deterministic.
	for v := 0; v < 2000; v++ {
		g.AddEdge(v, (v+1)%2000, 1)
		g.AddEdge(v, (v+37)%2000, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.KWay(g, 8, partition.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
