// Package gridse is the public API of the distributed power-grid
// state-estimation library — a reproduction of "Distributing Power Grid
// State Estimation on HPC Clusters — A System Architecture Prototype"
// (IEEE IPDPSW 2012).
//
// The library covers the full stack the paper builds on:
//
//   - IEEE 14/30/118-bus network models and AC power flow (ground truth),
//   - SCADA/PMU measurement simulation,
//   - weighted-least-squares state estimation whose gain system is solved
//     by one sparse LDLᵀ factor, refreshed on the shared worker pool (the
//     paper's PCG is replaced, not kept beside it),
//   - power-system decomposition with boundary/sensitive-bus analysis,
//   - the two-step distributed state-estimation (DSE) algorithm,
//   - METIS-style multilevel graph partitioning and the Expression (1)–(5)
//     cost model that maps subsystems onto HPC clusters,
//   - a MeDICi-style pipeline middleware for estimator-to-estimator data
//     exchange, and simulated multi-cluster testbeds.
//
// Quick start:
//
//	net := gridse.Case14()
//	truth, _ := gridse.SolvePowerFlow(net)
//	ms, _ := gridse.SimulateMeasurements(net, gridse.FullPlan().Build(net), truth.State, 1, 42)
//	est, _ := gridse.Estimate(net, ms)
//	fmt.Println(est.State.Vm)
//
// The full distributed flow is three calls: Decompose, PMUPlanFor (append
// to the plan before simulation), then RunDSE or RunDistributed — one
// sequence, run in process or placed on a testbed's sites, context-first:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
//	defer cancel()
//	res, err := gridse.RunDSE(ctx, dec, ms, gridse.DSEOptions{})
package gridse

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/partition"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// Network modeling (internal/grid).
type (
	// Network is a complete power-system model.
	Network = grid.Network
	// Bus is one electrical node.
	Bus = grid.Bus
	// Branch is a line or transformer.
	Branch = grid.Branch
	// Gen is a generating unit.
	Gen = grid.Gen
	// BusType classifies buses (PQ, PV, Slack).
	BusType = grid.BusType
)

// Bus types.
const (
	PQ    = grid.PQ
	PV    = grid.PV
	Slack = grid.Slack
)

// Built-in test systems.
var (
	// Case14 returns the IEEE 14-bus test system.
	Case14 = grid.Case14
	// Case30 returns the IEEE 30-bus test system.
	Case30 = grid.Case30
	// Case118 returns the IEEE 118-bus test system (the paper's test case).
	Case118 = grid.Case118
)

// CaseByName returns a built-in case ("ieee14", "ieee30", "ieee118").
func CaseByName(name string) (*Network, error) { return grid.ByName(name) }

// SynthOptions configures the synthetic multi-area grid generator.
type SynthOptions = grid.SynthOptions

// SynthWECC synthesizes a WECC-scale interconnection of IEEE-118 areas
// (the paper's ongoing-work scenario: 37 balancing authorities).
var SynthWECC = grid.SynthWECC

// AreaParts returns a synthetic network's bus-to-area assignment, usable
// directly with DecomposeWithParts.
var AreaParts = grid.AreaParts

// ReadCase parses the text case format; WriteCase emits it.
func ReadCase(r io.Reader) (*Network, error) { return grid.ReadCase(r) }

// WriteCase serializes a network.
func WriteCase(w io.Writer, n *Network) error { return grid.WriteCase(w, n) }

// Power flow (internal/powerflow).
type (
	// PowerFlowResult is a solved operating point.
	PowerFlowResult = powerflow.Result
	// State is a voltage magnitude/angle vector pair.
	State = powerflow.State
)

// SolvePowerFlow runs a flat-start Newton–Raphson power flow, producing the
// ground-truth operating state for measurement simulation.
func SolvePowerFlow(n *Network) (*PowerFlowResult, error) {
	return powerflow.Solve(n, powerflow.Options{FlatStart: true})
}

// Measurements (internal/meas).
type (
	// Measurement is one telemetered quantity.
	Measurement = meas.Measurement
	// MeasurementKind enumerates measurement types.
	MeasurementKind = meas.Kind
	// PlanOptions selects which quantities are metered.
	PlanOptions = meas.PlanOptions
	// MeasurementModel evaluates h(x) and H(x).
	MeasurementModel = meas.Model
)

// Measurement kinds.
const (
	Vmag  = meas.Vmag
	Pinj  = meas.Pinj
	Qinj  = meas.Qinj
	Pflow = meas.Pflow
	Qflow = meas.Qflow
	Angle = meas.Angle
)

// Plan constructors.
var (
	// FullPlan meters every bus and both ends of every branch.
	FullPlan = meas.FullPlan
	// RTUPlan is a realistic mid-redundancy SCADA configuration.
	RTUPlan = meas.RTUPlan
	// DefaultSigmas returns conventional meter accuracies.
	DefaultSigmas = meas.DefaultSigmas
)

// SimulateMeasurements draws noisy measurement values from a true state.
func SimulateMeasurements(n *Network, plan []Measurement, truth State, noiseLevel float64, seed int64) ([]Measurement, error) {
	return meas.Simulate(n, plan, truth, noiseLevel, seed)
}

// NewMeasurementModel builds an h(x)/H(x) model with the network slack as
// the angle reference.
func NewMeasurementModel(n *Network, ms []Measurement, refAngle float64) (*MeasurementModel, error) {
	return meas.NewModel(n, ms, n.SlackIndex(), refAngle)
}

// State estimation (internal/wls).
type (
	// EstimatorOptions configures the WLS estimator.
	EstimatorOptions = wls.Options
	// EstimatorResult reports an estimation run.
	EstimatorResult = wls.Result
	// BadDatum is one identified bad measurement.
	BadDatum = wls.BadDatum
	// Observability reports a structural observability analysis.
	Observability = wls.Observability
)

// Estimator numeric-reuse choices.
const (
	ReuseGain = wls.ReuseGain
	ReuseOff  = wls.ReuseOff
)

// Estimate runs centralized WLS state estimation with default options,
// using a PMU angle measurement at the slack (if present) as the reference.
func Estimate(n *Network, ms []Measurement) (*EstimatorResult, error) {
	return core.CentralizedEstimate(context.Background(), n, ms, wls.Options{})
}

// EstimateWith runs centralized WLS estimation with explicit options.
func EstimateWith(n *Network, ms []Measurement, opts EstimatorOptions) (*EstimatorResult, error) {
	return core.CentralizedEstimate(context.Background(), n, ms, opts)
}

// EstimateContext runs centralized WLS estimation under a context: an
// expired or canceled ctx aborts the solve between Gauss-Newton
// iterations. RunDSE, RunDistributed and RunHierarchical likewise take a
// context as their first argument and check it at the same points: one
// driver runs all three.
func EstimateContext(ctx context.Context, n *Network, ms []Measurement, opts EstimatorOptions) (*EstimatorResult, error) {
	return core.CentralizedEstimate(ctx, n, ms, opts)
}

// EstimateRobust runs the Huber M-estimator (gross errors suppressed by
// iteratively re-weighted least squares instead of removal).
var EstimateRobust = wls.EstimateRobust

// RobustOptions configures the Huber estimator.
type RobustOptions = wls.RobustOptions

// RobustResult reports a Huber estimation run.
type RobustResult = wls.RobustResult

// BuildFDIAttack constructs a coordinated (residual-invariant) false-data
// injection attack for security experiments.
var BuildFDIAttack = wls.BuildFDIAttack

// StatePerturbation builds the state shift targeted by an FDI attack.
var StatePerturbation = wls.StatePerturbation

// ChiSquareTest performs the J(x̂) bad-data detection test.
var ChiSquareTest = wls.ChiSquareTest

// NormalizedResiduals computes the normalized residual vector.
var NormalizedResiduals = wls.NormalizedResiduals

// IdentifyBadData runs the largest-normalized-residual identification loop.
var IdentifyBadData = wls.IdentifyBadData

// CheckObservability decides observability from which meters exist, not
// from their sigmas: the rank of the unit-weight flat-start Jacobian on the
// unit-admittance network, found by LDLᵀ on its gain.
var CheckObservability = wls.CheckObservability

// RestoreObservability adds one flat-profile pseudo-measurement per weak
// state CheckObservability finds, making the measurement set solvable.
var RestoreObservability = wls.RestoreObservability

// EstimateConstrained runs equality-constrained WLS (exact zero-injection
// constraints, each step the KKT step taken through its Schur complement on
// the estimator's LDLᵀ factor).
var EstimateConstrained = wls.EstimateConstrained

// ZeroInjectionConstraints scans a network for structural transit buses.
var ZeroInjectionConstraints = wls.ZeroInjectionConstraints

// Constraint declares one exact zero-injection constraint.
type Constraint = wls.Constraint

// LinearPMUEstimate solves the PMU-only (linear) estimation in one shot.
var LinearPMUEstimate = wls.LinearPMUEstimate

// PMUOnlyPlan meters every bus with a voltage phasor.
var PMUOnlyPlan = wls.PMUOnlyPlan

// InjectBadData corrupts one measurement by gross·sigma (testing aid).
var InjectBadData = meas.InjectBadData

// Distributed state estimation (internal/core).
type (
	// Decomposition is a power-system decomposition into subsystems. It
	// keeps the testbed RunDistributed and RunHierarchical bring up — sites,
	// links, data source, coordinator endpoint — for the next run; Close
	// releases it (a decomposition dropped without Close has it released by
	// the garbage collector).
	Decomposition = core.Decomposition
	// Subsystem is one decomposition piece.
	Subsystem = core.Subsystem
	// DecomposeOptions tunes the preliminary step.
	DecomposeOptions = core.DecomposeOptions
	// DSEOptions configures the DSE run.
	DSEOptions = core.DSEOptions
	// DSEResult is a completed DSE run.
	DSEResult = core.DSEResult
	// DistributedOptions configures a testbed run.
	DistributedOptions = core.DistributedOptions
	// DistributedResult reports a testbed run.
	DistributedResult = core.DistributedResult
	// HierarchicalResult reports a coordinator-based run.
	HierarchicalResult = core.HierarchicalResult
	// Mapping assigns subsystems to clusters.
	Mapping = core.Mapping
	// MapOptions configures the cost-model mapping.
	MapOptions = core.MapOptions
	// PseudoPacket is the neighbor-exchange payload.
	PseudoPacket = core.PseudoPacket
	// BusState is one bus's exchanged state.
	BusState = core.BusState
	// Session is a decomposition's reusable DSE pipeline: cached subproblem
	// skeletons (every subsystem's Step 1 and Step 2 and the hierarchical
	// coordinator's boundary system, from one builder), solver engines, and
	// cross-round/cross-frame warm-start state. Every Decomposition lazily
	// owns one, which the driver behind RunDSE, RunDistributed, and
	// RunHierarchical runs on; Session.Reset drops the cached state after an
	// external structural change.
	Session = core.Session
)

// NewSession builds a standalone DSE session for a decomposition (advanced
// use — the orchestrators manage the decomposition-owned session, and a
// Tracker pins its own, without any explicit session handling).
var NewSession = core.NewSession

// Decompose splits a network into m subsystems with sensitivity analysis.
func Decompose(n *Network, m int, opts DecomposeOptions) (*Decomposition, error) {
	return core.Decompose(n, m, opts)
}

// DecomposeWithParts builds a decomposition from a given bus assignment.
var DecomposeWithParts = core.DecomposeWithParts

// PMUPlanFor returns the PMU measurements DSE needs at reference buses.
var PMUPlanFor = core.PMUPlanFor

// RunDSE executes the two-step DSE algorithm in-process. The context is
// the first argument; cancellation aborts in-flight subsystem solves.
func RunDSE(ctx context.Context, d *Decomposition, ms []Measurement, opts DSEOptions) (*DSEResult, error) {
	return core.RunDSE(ctx, d, ms, opts)
}

// RunDistributed executes the full architecture on a simulated testbed
// (sites, middleware, mapping, redistribution): RunDSE's sequence,
// DSEOptions.Rounds and WarmStart included, bit for bit. The context
// governs the whole run, and a deadline on it bounds the run;
// DistributedOptions.PhaseTimeout derives per-phase deadlines from it.
func RunDistributed(ctx context.Context, d *Decomposition, ms []Measurement, opts DistributedOptions) (*DistributedResult, error) {
	return core.RunDistributed(ctx, d, ms, opts)
}

// RunHierarchical executes the coordinator-based hierarchical variant
// under the given context.
func RunHierarchical(ctx context.Context, d *Decomposition, ms []Measurement, opts DistributedOptions) (*HierarchicalResult, error) {
	return core.RunHierarchical(ctx, d, ms, opts)
}

// Tracker runs DSE over successive measurement frames with warm starts.
type Tracker = core.Tracker

// NewTracker prepares frame-to-frame tracking DSE for a decomposition.
var NewTracker = core.NewTracker

// Graph partitioning (internal/partition).
type (
	// Graph is a weighted undirected graph.
	Graph = partition.Graph
	// PartitionOptions tunes the multilevel partitioner.
	PartitionOptions = partition.Options
	// PartitionResult is a computed partition.
	PartitionResult = partition.Result
	// CostModel is the Expression (2) iteration model.
	CostModel = partition.CostModel
)

// NewGraph returns an empty weighted graph with n vertices.
var NewGraph = partition.NewGraph

// KWay partitions a graph into k parts (the METIS-substitute entry point).
var KWay = partition.KWay

// Repartition adaptively refines an existing assignment.
var Repartition = partition.Repartition

// PaperCostModel returns the paper's empirical 14-bus coefficients.
var PaperCostModel = partition.PaperCostModel

// NoiseFromTimeFrame is Expression (1), x = f(δt).
var NoiseFromTimeFrame = partition.NoiseFromTimeFrame
