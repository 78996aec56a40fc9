package wls

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// RobustOptions configures the Huber M-estimator.
type RobustOptions struct {
	// K is the Huber threshold in standardized-residual units; residuals
	// beyond K·σ get linear (down-weighted) loss. Zero selects 1.5.
	K float64
	// Inner configures the inner (re-weighted) WLS machinery.
	Inner Options
	// MaxReweights caps the IRLS outer iterations. Zero selects 15.
	MaxReweights int
	// Tol is the convergence tolerance on the state between reweighting
	// rounds. Zero selects TolDefault.
	Tol float64
}

// RobustResult reports a Huber M-estimation run.
type RobustResult struct {
	*Result
	// Reweights is the number of IRLS rounds performed.
	Reweights int
	// Downweighted lists measurements whose final Huber weight fell below
	// 1 (i.e. residual beyond K sigma) — the suspected outliers.
	Downweighted []int
}

// ErrRobustNotConverged reports that IRLS hit its iteration cap.
var ErrRobustNotConverged = errors.New("wls: robust estimator did not converge")

// EstimateRobust runs the Huber M-estimator by iteratively re-weighted
// least squares: solve WLS, standardize residuals, down-weight those
// beyond K sigma (w ← w·K/|r/σ|), and repeat until the state settles.
// Unlike the detection–identification cycle, gross errors are suppressed
// without removing measurements. A state still moving after MaxReweights
// rounds returns the last round's result with ErrRobustNotConverged.
func EstimateRobust(mod *meas.Model, opts RobustOptions) (*RobustResult, error) {
	k := opts.K
	if k <= 0 {
		k = 1.5
	}
	maxRounds := opts.MaxReweights
	if maxRounds <= 0 {
		maxRounds = 15
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = TolDefault
	}

	// Huber scaling factors per measurement, starting at 1 (plain WLS).
	scale := make([]float64, mod.NMeas())
	for i := range scale {
		scale[i] = 1
	}

	// One engine for all IRLS rounds: only the weights change between
	// rounds, so every round reuses the same symbolic plans.
	eng := NewEngine(mod)
	var prev []float64
	out := &RobustResult{}
	settled := false
	for round := 0; round < maxRounds; round++ {
		res, err := eng.estimateWeighted(context.Background(), opts.Inner, scale)
		if err != nil {
			return nil, fmt.Errorf("wls: robust round %d: %w", round, err)
		}
		out.Result = res
		out.Reweights = round + 1

		if prev != nil {
			maxDelta := 0.0
			for i := range res.X {
				if d := math.Abs(res.X[i] - prev[i]); d > maxDelta {
					maxDelta = d
				}
			}
			if settled = maxDelta < tol; settled {
				break
			}
		}
		prev = sparse.CopyVec(res.X)

		// Re-weight: Huber psi-function weights on standardized residuals.
		for i, m := range mod.Meas {
			u := math.Abs(res.Residuals[i]) / m.Sigma
			if u <= k {
				scale[i] = 1
			} else {
				scale[i] = k / u
			}
		}
	}
	for i, s := range scale {
		if s < 1 {
			out.Downweighted = append(out.Downweighted, i)
		}
	}
	if !settled {
		return out, fmt.Errorf("%w after %d rounds", ErrRobustNotConverged, out.Reweights)
	}
	return out, nil
}
