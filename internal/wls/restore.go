package wls

import (
	"fmt"

	"repro/internal/meas"
)

// RestoreObservability makes an unobservable measurement set solvable by
// adding pseudo-measurements at the unobservable states found by the
// numerical observability analysis: a flat-profile voltage (1 pu) or angle
// (reference angle) pseudo-measurement with the given sigma for each weak
// state. This is the standard EMS practice when telemetry loss leaves
// parts of the network unobserved — the estimator keeps running with prior
// knowledge standing in for the missing data.
//
// It returns the augmented measurement set and the added pseudo
// measurements (empty when the set was already observable).
func RestoreObservability(mod *meas.Model, sigma float64) ([]meas.Measurement, []meas.Measurement, error) {
	if sigma <= 0 {
		sigma = 0.05 // weak prior: an order of magnitude looser than meters
	}
	obs := CheckObservability(mod)
	if obs.Observable {
		return mod.Meas, nil, nil
	}
	nAngles := obs.NState - mod.Net.N()
	var added []meas.Measurement
	for _, state := range obs.WeakStates {
		var m meas.Measurement
		if state < nAngles {
			// Angle state: find the bus whose angle occupies this slot.
			bus, err := busOfAngleState(mod, state)
			if err != nil {
				return nil, nil, err
			}
			m = meas.Measurement{Kind: meas.Angle, Bus: bus, Sigma: sigma, Value: mod.RefAngle()}
		} else {
			bus := mod.Net.Buses[state-nAngles].ID
			m = meas.Measurement{Kind: meas.Vmag, Bus: bus, Sigma: sigma, Value: 1}
		}
		added = append(added, m)
	}
	out := append(append([]meas.Measurement(nil), mod.Meas...), added...)
	return out, added, nil
}

// busOfAngleState recovers the external bus number whose angle sits at the
// given state position by probing the model's state layout.
func busOfAngleState(mod *meas.Model, pos int) (int, error) {
	x := mod.FlatVec()
	x[pos] += 1 // nudge exactly one angle state
	st := mod.VecToState(x)
	flat := mod.VecToState(mod.FlatVec())
	for i := range st.Va {
		if st.Va[i] != flat.Va[i] {
			return mod.Net.Buses[i].ID, nil
		}
	}
	return 0, fmt.Errorf("wls: state %d maps to no bus angle", pos)
}
