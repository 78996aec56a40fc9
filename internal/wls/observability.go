package wls

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// Observability reports the result of a structural observability analysis.
type Observability struct {
	Observable bool
	// Rank is NState − len(WeakStates), the rank of CheckObservability's H₀.
	Rank   int
	NState int // the full state dimension
	// WeakStates lists, ascending, one state per unobservable direction:
	// the states that move most in those directions. Pinning them makes the
	// set observable; their number is fixed, the choice is mostMoved's.
	WeakStates []int
}

// restoreSigma is the sigma of a restoration pseudo-measurement.
const restoreSigma = 0.05

// CheckObservability decides whether the measurement set determines the
// whole state from which meters exist, not how precise they are (Monticelli
// & Wu, "Network observability: theory", 1985). G₀ = H₀ᵀH₀ weighs every
// meter of unitJacobian's H₀ by 1 and is factored by LDLᵀ over [H₀; I],
// the identity rows at weight 0. A pivot that breaks down names a state the
// states eliminated before it determine; giving its identity row weight 1
// pins it, and the factor is refreshed until it completes. The number of
// pins is the rank deficiency; mostMoved then chooses the weak states.
func CheckObservability(mod *meas.Model) Observability {
	h := unitJacobian(mod)
	m, n := h.Rows, h.Cols
	for s := 0; s < n; s++ {
		h.ColIdx, h.Val = append(h.ColIdx, s), append(h.Val, 1)
		h.RowPtr = append(h.RowPtr, len(h.ColIdx))
	}
	h.Rows += n
	w := make([]float64, m+n)
	for i := range w[:m] {
		w[i] = 1
	}
	plan := sparse.NewGainPlan(h)
	f, err := sparse.AnalyzeLDL(plan.G)
	var pins []int
	for err == nil {
		var pe *sparse.PivotError
		switch err = f.Refresh(plan.Refresh(h, w)); {
		case err == nil:
			weak := mostMoved(f, n, pins)
			return Observability{Observable: len(weak) == 0, Rank: n - len(weak), NState: n, WeakStates: weak}
		case errors.As(err, &pe) && w[m+pe.State] == 0:
			w[m+pe.State], err = 1, nil
			pins = append(pins, pe.State)
		}
	}
	// G₀ stores every diagonal, and no pinned pivot is under 1.
	panic(fmt.Sprintf("wls: observability: %v", err))
}

// RestoreObservability makes an unobservable measurement set solvable by
// putting one flat-profile pseudo-measurement on each weak state
// CheckObservability finds: 1 pu on a magnitude, the reference angle on an
// angle. This is the standard EMS practice when telemetry loss leaves parts
// of the network unobserved — the estimator keeps running with prior
// knowledge standing in for the missing data. It returns the augmented set
// and the added pseudo-measurements (none when the set was observable).
func RestoreObservability(mod *meas.Model) (augmented, added []meas.Measurement) {
	for _, state := range CheckObservability(mod).WeakStates {
		bus, angle := mod.StateBus(state)
		m := meas.Measurement{Kind: meas.Vmag, Bus: mod.Net.Buses[bus].ID, Sigma: restoreSigma, Value: 1}
		if angle {
			m.Kind, m.Value = meas.Angle, mod.RefAngle()
		}
		added = append(added, m)
	}
	if added == nil {
		return mod.Meas, nil
	}
	return append(slices.Clone(mod.Meas), added...), added
}

// mostMoved picks the weak states given f, the factor of G₀ with pins
// pinned. Pins fall where the elimination broke down, under minimum degree
// often on a hub whose leaves went first, and a flat prior on a hub fights
// its neighbours' meters. Instead, V = f⁻¹·E (E the pins' unit columns)
// spans G₀'s null space, and a column-pivoted Gram–Schmidt over V's rows
// picks per direction the state that moves most in the directions earlier
// picks leave free: independent rows, so pinning them works too.
func mostMoved(f *sparse.LDLFactor, n int, pins []int) []int {
	r := len(pins)
	v, col, e, q := make([]float64, n*r), make([]float64, n), make([]float64, n), make([]float64, r)
	for c, s := range pins {
		e[s] = 1
		f.Apply(col, e)
		e[s] = 0
		for i, x := range col {
			v[i*r+c] = x // row i of V: state i's part of every direction
		}
	}
	weak := make([]int, r)
	for k := range weak {
		// Take the last pick's direction q (zero at first) out of every row,
		// and pick the longest row left.
		best, bestSq := 0, 0.0
		for i := 0; i < n; i++ {
			row, d, sq := v[i*r:(i+1)*r], 0.0, 0.0
			for c, x := range row {
				d += x * q[c]
			}
			for c := range row {
				row[c] -= d * q[c]
				sq += row[c] * row[c]
			}
			if sq > bestSq {
				best, bestSq = i, sq
			}
		}
		weak[k] = best
		for c := range q {
			q[c] = v[best*r+c] / math.Sqrt(bestSq)
		}
	}
	slices.Sort(weak)
	return weak
}

// unitJacobian returns H₀: the flat-start Jacobian of mod's meters on a copy
// of its network whose branches are pure unit reactances (R 0, X 1, no
// charging, tap or shift) and whose buses carry no shunt, so its P–θ and
// Q–V blocks decouple into small integers.
func unitJacobian(mod *meas.Model) *sparse.CSR {
	net := mod.Net.Clone()
	for i := range net.Branches {
		br := &net.Branches[i]
		br.R, br.X, br.B, br.Tap, br.Shift = 0, 1, 0, 0, 0
	}
	for i := range net.Buses {
		net.Buses[i].Gs, net.Buses[i].Bs = 0, 0
	}
	unit, err := meas.NewModel(net, mod.Meas, mod.RefBus(), 0)
	if err != nil {
		panic(fmt.Sprintf("wls: observability: meters NewModel accepted on the network fail on its unit copy: %v", err))
	}
	return unit.Jacobian(unit.FlatVec())
}
