// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each function returns structured rows that
// cmd/experiments renders in the paper's format and bench_test.go asserts
// shape properties on. See EXPERIMENTS.md for paper-vs-measured records.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/partition"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// Fixture bundles the IEEE-118 scenario every experiment starts from.
type Fixture struct {
	Net   *grid.Network
	Truth powerflow.State
	Dec   *core.Decomposition
	Meas  []meas.Measurement
}

// NewFixture builds the standard scenario: IEEE 118, m subsystems, full
// metering + DSE PMUs, nominal noise.
func NewFixture(m int, noise float64, seed int64) (*Fixture, error) {
	n := grid.Case118()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		return nil, err
	}
	dec, err := core.Decompose(n, m, core.DecomposeOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, core.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := meas.Simulate(n, plan, pf.State, noise, seed)
	if err != nil {
		return nil, err
	}
	return &Fixture{Net: n, Truth: pf.State, Dec: dec, Meas: ms}, nil
}

// ---------------------------------------------------------------- Table I

// Table1Row is one vertex or edge row of Table I.
type Table1 struct {
	VertexWeights []float64    // per subsystem: number of buses
	Edges         [][3]float64 // (u, v, weight = bus counts summed)
}

// RunTable1 regenerates Table I: the initial vertex and edge weights of the
// IEEE-118 decomposition graph.
func RunTable1(fx *Fixture) Table1 {
	g := fx.Dec.Graph()
	t := Table1{VertexWeights: make([]float64, g.N())}
	for i := 0; i < g.N(); i++ {
		t.VertexWeights[i] = g.VertexWeight(i)
	}
	t.Edges = g.Edges()
	return t
}

// ---------------------------------------------------------------- Table II

// Table2 compares bus counts per cluster with and without the mapping
// method (paper: w/o 35/46/37, w/ 40/40/38).
type Table2 struct {
	WithoutMapping []int // buses per cluster, naive contiguous assignment
	WithMapping    []int // buses per cluster, cost-model mapping
}

// RunTable2 regenerates Table II for p clusters.
func RunTable2(fx *Fixture, p int, seed int64) (Table2, error) {
	m := len(fx.Dec.Subsystems)
	naive := make([]int, m)
	for si := range naive {
		naive[si] = si * p / m
	}
	mapped, err := fx.Dec.MapStep1(p, core.MapOptions{Seed: seed})
	if err != nil {
		return Table2{}, err
	}
	count := func(assign []int) []int {
		buses := make([]int, p)
		for si, c := range assign {
			buses[c] += len(fx.Dec.Subsystems[si].Buses)
		}
		return buses
	}
	return Table2{WithoutMapping: count(naive), WithMapping: count(mapped.Assign)}, nil
}

// ------------------------------------------------------- Tables III and IV

// OverheadRow is one row of Table III/IV.
type OverheadRow = medici.OverheadSample

// DefaultSizes is the scaled-down sweep used by default (the paper's
// 100 MB–2 GB sweep is available via FullSizes; the overhead is linear in
// size either way — Figure 8).
func DefaultSizes() []int {
	return []int{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
}

// FullSizes is the paper's original sweep: 100 MB to 2 GB.
func FullSizes() []int {
	return []int{100e6, 200e6, 500e6, 1000e6, 2000e6}
}

// RunTable3 measures middleware overhead "within a Linux workstation":
// unshaped loopback TCP.
func RunTable3(ctx context.Context, sizes []int) ([]OverheadRow, error) {
	return overheadSweep(ctx, nil, sizes)
}

// RunTable4 measures middleware overhead "between a workstation and an HPC
// cluster": loopback shaped to the paper's lab-network profile.
func RunTable4(ctx context.Context, sizes []int) ([]OverheadRow, error) {
	tr := cluster.NewShapedTransport(cluster.LabNetworkProfile(), nil)
	return overheadSweep(ctx, tr, sizes)
}

func overheadSweep(ctx context.Context, tr medici.Transport, sizes []int) ([]OverheadRow, error) {
	rows := make([]OverheadRow, 0, len(sizes))
	for _, sz := range sizes {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		s, err := medici.MeasureOverhead(ctx, tr, sz, 0)
		if err != nil {
			return rows, fmt.Errorf("size %d: %w", sz, err)
		}
		rows = append(rows, s)
	}
	return rows, nil
}

// ------------------------------------------------------- Figures 4 and 5

// MappingFigure reports one mapping step (Figures 4/5).
type MappingFigure struct {
	Assign    []int
	Imbalance float64
	EdgeCut   float64
	Migrated  []int // only for the step-2 repartition
}

// RunFig4 computes the Step-1 mapping (load balance only; paper: 1.035).
func RunFig4(fx *Fixture, p int, seed int64) (MappingFigure, error) {
	m, err := fx.Dec.MapStep1(p, core.MapOptions{Seed: seed})
	if err != nil {
		return MappingFigure{}, err
	}
	return MappingFigure{Assign: m.Assign, Imbalance: m.Imbalance, EdgeCut: m.EdgeCut}, nil
}

// RunFig5 computes the Step-2 repartition from the Step-1 mapping
// (communication-aware; paper: 1.079 with two subsystems migrating).
func RunFig5(fx *Fixture, p int, seed int64) (MappingFigure, error) {
	m1, err := fx.Dec.MapStep1(p, core.MapOptions{Seed: seed})
	if err != nil {
		return MappingFigure{}, err
	}
	m2, err := fx.Dec.MapStep2(p, m1, core.MapOptions{Seed: seed})
	if err != nil {
		return MappingFigure{}, err
	}
	return MappingFigure{
		Assign: m2.Assign, Imbalance: m2.Imbalance, EdgeCut: m2.EdgeCut,
		Migrated: core.Migrations(m1, m2),
	}, nil
}

// ---------------------------------------------------------- Expression (2)

// Expr2Point is one (noise level, iterations) sample.
type Expr2Point struct {
	Noise      float64
	Iterations float64 // mean Gauss–Newton iterations over trials
}

// Expr2Fit is the measured linear model Ni = G1·x + G2.
type Expr2Fit struct {
	Points []Expr2Point
	G1, G2 float64
}

// RunExpr2 calibrates the Expression (2) iteration model on a 14-bus
// subsystem: sweep the noise level, measure the Gauss–Newton iteration
// count to a tight tolerance, and fit the line (paper: g1=3.7579,
// g2=5.2464 — on their testbed and solver settings; the reproduced slope
// is positive but platform-specific).
func RunExpr2(levels []float64, trials int) (Expr2Fit, error) {
	n := grid.Case14()
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true})
	if err != nil {
		return Expr2Fit{}, err
	}
	plan := meas.FullPlan().Build(n)
	fit := Expr2Fit{}
	for _, x := range levels {
		total := 0
		for trial := 0; trial < trials; trial++ {
			ms, err := meas.Simulate(n, plan, pf.State, x, int64(trial)*1000+int64(x*100))
			if err != nil {
				return fit, err
			}
			mod, err := meas.NewModel(n, ms, n.SlackIndex(), pf.State.Va[n.SlackIndex()])
			if err != nil {
				return fit, err
			}
			res, err := wls.Estimate(mod, wls.Options{Tol: 1e-9})
			if err != nil {
				return fit, err
			}
			total += res.Iterations
		}
		fit.Points = append(fit.Points, Expr2Point{Noise: x, Iterations: float64(total) / float64(trials)})
	}
	fit.G1, fit.G2 = fitLine(fit.Points)
	return fit, nil
}

func fitLine(pts []Expr2Point) (slope, intercept float64) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.Noise
		sy += p.Iterations
		sxx += p.Noise * p.Noise
		sxy += p.Noise * p.Iterations
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return
}

// ----------------------------------------------------------- End to end

// EndToEnd compares the distributed architecture against the centralized
// estimator on the same measurement set — the paper's headline "low
// overhead" claim.
type EndToEnd struct {
	CentralizedTime time.Duration
	DistributedTime time.Duration
	Timings         core.PhaseTimings
	WireBytes       int
	WireMessages    int
	// MaxVmDelta is the largest |Vm| difference between the two solutions.
	MaxVmDelta float64
}

// RunEndToEnd executes both paths and reports times and agreement.
func RunEndToEnd(ctx context.Context, fx *Fixture, p int) (EndToEnd, error) {
	start := time.Now()
	cen, err := core.CentralizedEstimate(ctx, fx.Net, fx.Meas, wls.Options{})
	if err != nil {
		return EndToEnd{}, err
	}
	e := EndToEnd{CentralizedTime: time.Since(start)}

	dist, err := core.RunDistributed(ctx, fx.Dec, fx.Meas, core.DistributedOptions{Clusters: p})
	if err != nil {
		return e, err
	}
	e.DistributedTime = dist.Timings.Total
	e.Timings = dist.Timings
	e.WireBytes = dist.WireBytes
	e.WireMessages = dist.WireMessages
	for i := range cen.State.Vm {
		if d := abs(dist.State.Vm[i] - cen.State.Vm[i]); d > e.MaxVmDelta {
			e.MaxVmDelta = d
		}
	}
	return e, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Expr1Curve samples Expression (1), x = f(δt), for documentation plots.
func Expr1Curve(steps int) []Expr2Point {
	out := make([]Expr2Point, 0, steps)
	for i := 1; i <= steps; i++ {
		dt := time.Duration(i) * time.Second
		out = append(out, Expr2Point{
			Noise:      float64(dt) / float64(time.Second),
			Iterations: partition.NoiseFromTimeFrame(dt),
		})
	}
	return out
}
