package wls

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/meas"
)

// LinearPMUEstimate solves the PMU-only state estimation problem in one
// shot: when the measurement set contains only voltage phasors (Vmag +
// Angle), h(x) is linear in the state, so the WLS solution needs a single
// weighted least-squares solve — no Gauss–Newton iteration. This is the
// estimation regime the paper's introduction points toward ("the time to
// solution ... needs to be radically reduced to the 10 milliseconds to 1
// second range" as PMU deployment grows).
//
// Every bus must carry both a magnitude and an angle measurement for full
// observability (a bus without a PMU can be covered first by
// RestoreObservability, whose flat-profile pseudo-measurements are phasors).
func LinearPMUEstimate(mod *meas.Model, opts Options) (*Result, error) {
	for i, m := range mod.Meas {
		if m.Kind != meas.Vmag && m.Kind != meas.Angle {
			return nil, fmt.Errorf("wls: linear PMU estimation requires phasor measurements only; measurement %d is %v", i, m.Kind)
		}
	}
	if mod.NMeas() < mod.NState() {
		return nil, fmt.Errorf("%w: %d phasor measurements < %d states", ErrUnobservable, mod.NMeas(), mod.NState())
	}
	// h(x) = H·x + c with constant H: one linearization at flat start is
	// exact, so a single normal-equation solve finishes the job,
	// routed through the solver engine so the phasor problem shares the
	// plan/workspace machinery of the nonlinear path.
	return NewEngine(mod).SolveLinear(opts)
}

// PMUOnlyPlan meters every bus with a PMU (voltage magnitude + angle) at
// the given sigma — the all-PMU future-grid configuration.
func PMUOnlyPlan(n *grid.Network, sigma float64) []meas.Measurement {
	out := make([]meas.Measurement, 0, 2*n.N())
	for _, b := range n.Buses {
		out = append(out,
			meas.Measurement{Kind: meas.Vmag, Bus: b.ID, Sigma: sigma},
			meas.Measurement{Kind: meas.Angle, Bus: b.ID, Sigma: sigma})
	}
	return out
}
