// Package meas implements the measurement layer of state estimation: the
// measurement types delivered by SCADA RTUs and PMUs, the nonlinear
// states-to-measurements function z = h(x) + e, its sparse Jacobian H(x),
// and simulators that draw noisy measurement sets from a solved operating
// state.
package meas

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/powerflow"
	"repro/internal/sparse"
)

// Kind enumerates measurement types.
type Kind int

// Measurement kinds. Vmag/Pinj/Qinj/Angle reference a bus; Pflow/Qflow
// reference a branch end.
const (
	Vmag  Kind = iota + 1 // bus voltage magnitude, pu
	Pinj                  // bus active power injection, pu
	Qinj                  // bus reactive power injection, pu
	Pflow                 // branch active power flow, pu
	Qflow                 // branch reactive power flow, pu
	Angle                 // PMU bus voltage angle, rad
)

func (k Kind) String() string {
	switch k {
	case Vmag:
		return "V"
	case Pinj:
		return "Pinj"
	case Qinj:
		return "Qinj"
	case Pflow:
		return "Pflow"
	case Qflow:
		return "Qflow"
	case Angle:
		return "Angle"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Measurement is one telemetered quantity with its noise model.
type Measurement struct {
	Kind     Kind
	Bus      int     // external bus number (Vmag, Pinj, Qinj, Angle)
	Branch   int     // index into Network.Branches (Pflow, Qflow)
	FromSide bool    // flow measured at the From end (else To end)
	Value    float64 // telemetered value, pu (rad for Angle)
	Sigma    float64 // standard deviation of the meter noise
}

// Key returns a stable identity for the measured quantity (ignoring value).
func (m Measurement) Key() string {
	switch m.Kind {
	case Pflow, Qflow:
		side := "t"
		if m.FromSide {
			side = "f"
		}
		return fmt.Sprintf("%s:br%d:%s", m.Kind, m.Branch, side)
	default:
		return fmt.Sprintf("%s:bus%d", m.Kind, m.Bus)
	}
}

// ErrBadMeasurement marks a measurement no estimate can use: a NaN or
// infinite value, or a sigma that is NaN, infinite, zero or negative.
// NewModel and UpdateValues wrap it with the measurement's index and Key.
var ErrBadMeasurement = errors.New("meas: bad measurement")

// Model evaluates h(x) and H(x) for a fixed network and measurement set.
// The state vector is x = [θ at every non-reference bus, V at every bus],
// with the reference (slack) angle fixed at its known value.
//
// NewModel snapshots the network: the admittance matrix and the branch-end
// constants of every metered flow are computed there, once, so a later edit
// of Net's branch or shunt parameters does not reach h(x) or H(x). Only
// measurement values (UpdateValues) and the reference angle (SetRefAngle)
// may change under a live model.
type Model struct {
	Net  *grid.Network
	Meas []Measurement

	y        *grid.YBus
	k        kernel
	out      int   // branch WithoutBranch took out, −1 on a model NewModel built
	refBus   int   // internal index of the angle-reference bus
	angPos   []int // internal bus index -> angle position in x, -1 for ref
	nAngles  int
	refAngle float64
}

// checkValue and checkSigma are the ErrBadMeasurement conditions.
func checkValue(i int, m Measurement) error {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return fmt.Errorf("%w: measurement %d (%s) has non-finite value %g", ErrBadMeasurement, i, m.Key(), m.Value)
	}
	return nil
}

func checkSigma(i int, m Measurement) error {
	if !(m.Sigma > 0) || math.IsInf(m.Sigma, 0) {
		return fmt.Errorf("%w: measurement %d (%s) has sigma %g, want finite and positive", ErrBadMeasurement, i, m.Key(), m.Sigma)
	}
	return nil
}

// NewModel builds a measurement model. ref is the internal index of the
// angle-reference bus (normally the slack); refAngle its fixed angle.
func NewModel(n *grid.Network, ms []Measurement, ref int, refAngle float64) (*Model, error) {
	if ref < 0 || ref >= n.N() {
		return nil, fmt.Errorf("meas: reference bus index %d out of range", ref)
	}
	for bi, br := range n.Branches {
		// The negated comparison also catches a NaN impedance.
		if den := br.R*br.R + br.X*br.X; br.Status && !(den > 0) {
			return nil, fmt.Errorf("meas: in-service branch %d (%d-%d) has no series impedance (R=%g, X=%g)", bi, br.From, br.To, br.R, br.X)
		}
	}
	ops := make([]measOp, len(ms))
	for i, m := range ms {
		switch m.Kind {
		case Vmag, Pinj, Qinj, Angle:
			bus, ok := n.Index(m.Bus)
			if !ok {
				return nil, fmt.Errorf("meas: measurement %d references unknown bus %d", i, m.Bus)
			}
			ops[i].idx = int32(bus)
		case Pflow, Qflow:
			if m.Branch < 0 || m.Branch >= len(n.Branches) {
				return nil, fmt.Errorf("meas: measurement %d references unknown branch %d", i, m.Branch)
			}
			if !n.Branches[m.Branch].Status {
				return nil, fmt.Errorf("meas: measurement %d references out-of-service branch %d", i, m.Branch)
			}
			ops[i].idx = int32(2 * m.Branch)
			if !m.FromSide {
				ops[i].idx++
			}
		default:
			return nil, fmt.Errorf("meas: measurement %d has invalid kind %v", i, m.Kind)
		}
		if err := checkSigma(i, m); err != nil {
			return nil, err
		}
		if err := checkValue(i, m); err != nil {
			return nil, err
		}
	}
	mod := &Model{
		Net: n, Meas: ms, y: grid.BuildYBus(n), out: -1,
		refBus: ref, refAngle: refAngle,
	}
	mod.angPos = make([]int, n.N())
	pos := 0
	for i := range mod.angPos {
		if i == ref {
			mod.angPos[i] = -1
			continue
		}
		mod.angPos[i] = pos
		pos++
	}
	mod.nAngles = pos
	mod.compile(ops)
	return mod, nil
}

// WithoutBranch returns a view of the model with in-service branch br taken
// out: what NewModel builds on a copy of Net with that branch out of
// service, at the cost of one copy of the admittance values. The view
// shares the compiled kernel, the admittance pattern, the state layout and
// the measurement slice with mod — an UpdateValues through either reaches
// both, and must not run while the other evaluates — and owns its
// admittance values (grid.YBus.WithoutBranch) and its reference angle. Its
// Net is mod's and still lists the branch in service.
//
// h(x) and H(x) of every row but the flows metered on br itself are, bit for
// bit, those of the rebuilt model: the four admittance entries that change
// are summed again in BuildYBus's order, and where a bus pair loses its only
// branch the entry stays as an explicit zero, which adds ±0 to an injection
// and writes ±0 into the Jacobian entries the rebuilt pattern does not have.
// The flow rows of br keep the branch's constants and mean nothing; the
// caller masks them (wls.Engine.MaskMeasurement). Net's branch and shunt
// parameters must be what NewModel saw.
func (mod *Model) WithoutBranch(br int) (*Model, error) {
	if mod.out >= 0 {
		return nil, fmt.Errorf("meas: WithoutBranch on a view that already has branch %d out", mod.out)
	}
	if br < 0 || br >= len(mod.Net.Branches) {
		return nil, fmt.Errorf("meas: WithoutBranch: unknown branch %d", br)
	}
	if !mod.Net.Branches[br].Status {
		return nil, fmt.Errorf("meas: WithoutBranch: branch %d is already out of service", br)
	}
	v := *mod
	v.y = mod.y.WithoutBranch(mod.Net, br)
	v.out = br
	return &v, nil
}

// NState returns the state dimension: (#buses − 1) angles + #buses magnitudes.
func (mod *Model) NState() int { return mod.nAngles + mod.Net.N() }

// NMeas returns the number of measurements.
func (mod *Model) NMeas() int { return len(mod.Meas) }

// NAngles returns the number of angle state variables (#buses − 1). The
// program does not call it; it stays only because benchmark/replay.go does.
func (mod *Model) NAngles() int { return mod.nAngles }

// RefBus returns the internal index of the angle-reference bus (the one
// bus with no angle variable in the state vector).
func (mod *Model) RefBus() int { return mod.refBus }

// StateBus returns the internal index of the bus whose angle (angle true)
// or voltage magnitude sits at position i of the state vector.
func (mod *Model) StateBus(i int) (bus int, angle bool) {
	if i >= mod.nAngles {
		return i - mod.nAngles, false
	}
	if i >= mod.refBus {
		return i + 1, true // the angle positions skip the reference bus
	}
	return i, true
}

// StateToVec packs a powerflow.State into the state vector layout.
func (mod *Model) StateToVec(st powerflow.State) []float64 {
	x := make([]float64, mod.NState())
	for i, p := range mod.angPos {
		if p >= 0 {
			x[p] = st.Va[i]
		}
	}
	copy(x[mod.nAngles:], st.Vm)
	return x
}

// VecToState unpacks a state vector into Vm/Va arrays (the reference angle
// is restored).
func (mod *Model) VecToState(x []float64) powerflow.State {
	nb := mod.Net.N()
	st := powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	mod.unpackState(x, st.Vm, st.Va)
	return st
}

// unpackState writes the state vector into caller-owned vm/va buffers
// (length Net.N()), restoring the reference angle. It is the allocation-free
// core of VecToState used by the plan-based evaluation paths.
func (mod *Model) unpackState(x, vm, va []float64) {
	for i, p := range mod.angPos {
		if p >= 0 {
			va[i] = x[p]
		} else {
			va[i] = mod.refAngle
		}
	}
	copy(vm, x[mod.nAngles:])
}

// FlatVec returns the flat-start state vector (angles at the reference
// angle, magnitudes at 1 pu).
func (mod *Model) FlatVec() []float64 {
	x := make([]float64, mod.NState())
	mod.flatInto(x)
	return x
}

// flatInto writes the flat-start state into x (length NState).
func (mod *Model) flatInto(x []float64) {
	for i := 0; i < mod.nAngles; i++ {
		x[i] = mod.refAngle
	}
	for i := mod.nAngles; i < len(x); i++ {
		x[i] = 1
	}
}

// Eval computes h(x) for the model's measurement set: one state load and
// one pass of the compiled kernel, as JacobianPlan.EvalInto does on buffers
// it keeps.
func (mod *Model) Eval(x []float64) []float64 {
	st := mod.newStateLoad()
	mod.load(st, x)
	h := make([]float64, len(mod.Meas))
	mod.evalLoaded(st, h)
	return h
}

// Jacobian assembles the sparse measurement Jacobian H(x) with one row per
// measurement and one column per state variable: a one-shot JacobianPlan,
// refreshed at x. Structural entries whose derivative is exactly zero at x
// are kept as explicit zeros, so the pattern (and the floating-point
// contribution order of everything built from it, like the gain matrix) is
// the same at any state.
func (mod *Model) Jacobian(x []float64) *sparse.CSR {
	return mod.NewJacobianPlan().Refresh(x)
}

// Weights returns the WLS weight vector w_i = 1/σ_i².
func (mod *Model) Weights() []float64 {
	w := make([]float64, len(mod.Meas))
	for i, m := range mod.Meas {
		w[i] = 1 / (m.Sigma * m.Sigma)
	}
	return w
}

// RefAngle returns the fixed angle of the reference bus.
func (mod *Model) RefAngle() float64 { return mod.refAngle }

// SetRefAngle rebinds the fixed reference-bus angle in place. The reference
// angle is a measurement value, not structure: h(x), H(x), and every
// symbolic plan read it live through the model, so retargeting it is the
// value-only companion of UpdateValues for streaming PMU frames where the
// reference PMU reports a fresh synchronized angle.
func (mod *Model) SetRefAngle(a float64) { mod.refAngle = a }

// UpdateValues replaces the measurement values in place from a structurally
// identical measurement set (same kinds, locations, and sigmas, in the same
// order). It is how a streaming frame of fresh telemetry is folded into an
// existing model without invalidating any symbolic solver plan built on it.
// A non-finite value fails with ErrBadMeasurement and changes nothing.
func (mod *Model) UpdateValues(ms []Measurement) error {
	if len(ms) != len(mod.Meas) {
		return fmt.Errorf("meas: UpdateValues with %d measurements, model has %d", len(ms), len(mod.Meas))
	}
	for i, m := range ms {
		o := mod.Meas[i]
		if m.Kind != o.Kind || m.Bus != o.Bus || m.Branch != o.Branch ||
			m.FromSide != o.FromSide || m.Sigma != o.Sigma {
			return fmt.Errorf("meas: UpdateValues structure mismatch at measurement %d (%s vs %s)", i, m.Key(), o.Key())
		}
		if err := checkValue(i, m); err != nil {
			return err
		}
	}
	for i, m := range ms {
		mod.Meas[i].Value = m.Value
	}
	return nil
}

// SameStructure reports whether other has the same estimation structure as
// mod — same network topology and the same measurement set up to values —
// so that symbolic plans built on mod remain valid for other's problem.
func (mod *Model) SameStructure(other *Model) bool {
	if other == nil || mod.NState() != other.NState() || len(mod.Meas) != len(other.Meas) {
		return false
	}
	// refAngle is deliberately not compared: it is a per-frame measurement
	// value (see SetRefAngle), and no symbolic plan depends on it.
	if mod.refBus != other.refBus || mod.out != other.out {
		return false
	}
	a, b := mod.Net, other.Net
	if a.N() != b.N() || len(a.Branches) != len(b.Branches) || a.BaseMVA != b.BaseMVA {
		return false
	}
	for i := range a.Buses {
		// Gs/Bs enter the admittance matrix, so they are structural for the
		// Jacobian values even though they don't affect the pattern.
		if a.Buses[i].ID != b.Buses[i].ID ||
			a.Buses[i].Gs != b.Buses[i].Gs || a.Buses[i].Bs != b.Buses[i].Bs {
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
	for i := range mod.Meas {
		m, o := mod.Meas[i], other.Meas[i]
		if m.Kind != o.Kind || m.Bus != o.Bus || m.Branch != o.Branch ||
			m.FromSide != o.FromSide || m.Sigma != o.Sigma {
			return false
		}
	}
	return true
}
