package sparse_test

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// TestGainPlanPatternOnJacobians: on the estimator's own Jacobians — the
// full SCADA plan and an RTU plan on IEEE-14/30/118 and SynthWECC-2/4/12 —
// the sort-free gain plan lays out G, its work prefix and its empty row
// exactly as the sorted build did.
func TestGainPlanPatternOnJacobians(t *testing.T) {
	nets := []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()}
	for _, areas := range []int{2, 4, 12} {
		nets = append(nets, synthWECC(t, areas, 1))
	}
	for _, net := range nets {
		for planName, plan := range map[string]meas.PlanOptions{"full": meas.FullPlan(), "rtu": meas.RTUPlan(1)} {
			name := fmt.Sprintf("%s/%s", net.Name, planName)
			mod, err := meas.NewModel(net, plan.Build(net), net.SlackIndex(), 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if msg := sparse.GainPatternMismatch(mod.NewJacobianPlan().H); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
		}
	}
}
