package experiments

import (
	"context"
	"math"

	"repro/internal/core"
)

// RoundsPoint is one sample of the Step-2 convergence study.
type RoundsPoint struct {
	Rounds        int
	BoundaryRMSVa float64 // RMS boundary-bus angle error vs truth, rad
	ExchangeBytes int
}

// RunRoundsStudy measures how repeated Step-2 rounds improve boundary
// accuracy — the paper states the Step 1/2 iteration converges within a
// number of rounds bounded by the decomposition-graph diameter [10]. The
// study sweeps rounds 1..diameter+1 and reports boundary angle RMS error.
func RunRoundsStudy(ctx context.Context, fx *Fixture) ([]RoundsPoint, error) {
	maxRounds := fx.Dec.Diameter() + 1
	if maxRounds < 2 {
		maxRounds = 2
	}
	var out []RoundsPoint
	for rounds := 1; rounds <= maxRounds; rounds++ {
		res, err := core.RunDSE(ctx, fx.Dec, fx.Meas, core.DSEOptions{Rounds: rounds})
		if err != nil {
			return out, err
		}
		var se float64
		var count int
		for _, s := range fx.Dec.Subsystems {
			for _, b := range s.Boundary {
				d := res.State.Va[b] - fx.Truth.Va[b]
				se += d * d
				count++
			}
		}
		out = append(out, RoundsPoint{
			Rounds:        rounds,
			BoundaryRMSVa: math.Sqrt(se / float64(count)),
			ExchangeBytes: res.ExchangeBytes,
		})
	}
	return out, nil
}
