package wls

import (
	"fmt"
	"math"

	"repro/internal/meas"
)

// ChiSquareTest performs the J(x̂) chi-square goodness-of-fit test for bad
// data: with m measurements and n states, J(x̂) follows χ²(m−n) under the
// null hypothesis of Gaussian meter noise only. It returns the test
// threshold at the given confidence (e.g. 0.99) and whether bad data is
// suspected (J exceeds the threshold).
func ChiSquareTest(res *Result, mod *meas.Model, confidence float64) (threshold float64, suspect bool, err error) {
	dof := mod.NMeas() - mod.NState()
	if dof <= 0 {
		return 0, false, fmt.Errorf("wls: chi-square test needs redundancy (m=%d, n=%d)", mod.NMeas(), mod.NState())
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, false, fmt.Errorf("wls: confidence %g outside (0,1)", confidence)
	}
	threshold = chiSquareQuantile(float64(dof), confidence)
	return threshold, res.ObjectiveJ > threshold, nil
}

// chiSquareQuantile approximates the χ²(k) quantile via the
// Wilson–Hilferty transformation; accurate to a few percent for k ≥ 3,
// which is ample for a detection threshold.
func chiSquareQuantile(k, p float64) float64 {
	z := math.Sqrt2 * math.Erfinv(2*p-1)
	a := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * a * a * a
}

// NormalizedResiduals computes the normalized residuals of res, an estimate
// on mod, on an engine of its own (see Engine.NormalizedResiduals).
func NormalizedResiduals(res *Result, mod *meas.Model) ([]float64, error) {
	return NewEngine(mod).NormalizedResiduals(res)
}

// BadDatum describes one identified bad measurement.
type BadDatum struct {
	Index      int     // index into the model's measurement slice
	Key        string  // measurement identity
	Normalized float64 // normalized residual at identification time
}

// IdentifyBadData runs the classical largest-normalized-residual cycle:
// estimate, test, mask the worst measurement, repeat, until all normalized
// residuals fall below the identification threshold (typically 3.0) or
// maxRemovals is reached. It returns the identified measurements (indices
// into the original model's measurement slice) and the final clean
// estimation result.
//
// One engine serves the whole sweep: each identified measurement is masked
// in place (Engine.MaskMeasurement zeroes its weight slot) instead of being
// removed from the model, so the Jacobian and gain skeletons — and with
// them every symbolic plan — survive across identification rounds. A zero
// weight eliminates the row's contribution to G, the right-hand side, and
// the objective exactly, so the masked estimate matches the
// removed-measurement estimate to assembly-order roundoff. The final
// Result therefore reports full-length residuals, with the masked rows
// excluded from ObjectiveJ.
func IdentifyBadData(mod *meas.Model, opts Options, threshold float64, maxRemovals int) ([]BadDatum, *Result, error) {
	if threshold <= 0 {
		threshold = 3.0
	}
	if maxRemovals <= 0 {
		maxRemovals = 5
	}
	eng := NewEngine(mod)
	var removed []BadDatum
	for {
		res, err := eng.Estimate(opts)
		if err != nil {
			return removed, res, err
		}
		rn, err := eng.NormalizedResiduals(res)
		if err != nil {
			return removed, res, err
		}
		worst, worstVal := -1, threshold
		for i, v := range rn {
			if !eng.MaskedMeasurement(i) && v > worstVal {
				worst, worstVal = i, v
			}
		}
		if worst < 0 {
			return removed, res, nil
		}
		if len(removed) >= maxRemovals {
			return removed, res, fmt.Errorf("wls: still detecting bad data after %d removals", maxRemovals)
		}
		removed = append(removed, BadDatum{
			Index:      worst,
			Key:        mod.Meas[worst].Key(),
			Normalized: worstVal,
		})
		if err := eng.MaskMeasurement(worst); err != nil {
			return removed, res, err
		}
	}
}
