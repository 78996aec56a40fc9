package core

import (
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// TestGainPatternMatchesGainPlanOnSubsystems: on the Step-1 and Step-2
// models of IEEE-118 in 9 subsystems and of SynthWECC-12 in its areas —
// local references, boundary buses metered only in Step 2, tie-line flows
// and the neighbours' pseudo-measurements — the closed-form pattern of G is
// the one the gain plan walks off H (meas.TestGainPatternMatchesGainPlan
// covers whole networks).
func TestGainPatternMatchesGainPlanOnSubsystems(t *testing.T) {
	for name, fx := range map[string]*fixture{
		"ieee118/9":    newFixture(t, grid.Case118, 9, 1),
		"synthwecc/12": weccFixture(t, 12),
	} {
		check := func(step string, si int, mod *meas.Model) {
			t.Helper()
			got, ok := meas.GainPattern(mod.Net, mod.Meas, mod.RefBus())
			want := sparse.NewGainPlan(mod.NewJacobianPlan().H).G
			if !ok || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
				t.Errorf("%s: %s subsystem %d: the closed-form pattern (%d entries) is not the gain plan's (%d)",
					name, step, si, len(got.ColIdx), len(want.ColIdx))
			}
		}
		sess := NewSession(fx.dec, DSEOptions{})
		_, packets := sessionStep1(t, sess, fx.ms)
		for si := range fx.dec.Subsystems {
			sp1, err := fx.dec.BuildStep1(si, fx.ms)
			if err != nil {
				t.Fatal(err)
			}
			check("step 1", si, sp1.Model)
			sp2, err := fx.dec.BuildStep2(si, fx.ms, incomingFor(fx.dec, si, packets), 0)
			if err != nil {
				t.Fatal(err)
			}
			check("step 2", si, sp2.Model)
		}
	}
}
