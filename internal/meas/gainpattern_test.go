package meas

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// gainPatternMismatch names the first place where the closed-form pattern
// of G differs from the one the gain plan walks off the model's Jacobian,
// or returns "".
func gainPatternMismatch(mod *Model) string {
	got, want := mod.GainPattern(), sparse.NewGainPlan(mod.NewJacobianPlan().H).G
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("closed form is %dx%d, the plan's G %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for _, c := range []struct {
		name      string
		got, want []int
	}{{"RowPtr", got.RowPtr, want.RowPtr}, {"ColIdx", got.ColIdx, want.ColIdx}} {
		for k := range min(len(c.got), len(c.want)) {
			if c.got[k] != c.want[k] {
				return fmt.Sprintf("%s[%d] = %d, the plan's %d", c.name, k, c.got[k], c.want[k])
			}
		}
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s has %d entries, the plan's %d", c.name, len(c.got), len(c.want))
		}
	}
	return ""
}

// TestGainPatternMatchesGainPlan: the closed-form pattern of G is the one
// the gain plan walks off H, on IEEE-14/30/118 and SynthWECC-2/4/12 under
// the full SCADA plan and an RTU plan with dropped meters, with the
// reference at the slack, at bus 0 and at the last bus; and on the 5-bus
// network with a parallel circuit and an out-of-service branch, under its
// full plan, a set of Vmag and Angle rows alone, and a set where one bus is
// metered by Vmag only and another by Angle only, which leaves rows of G
// with one entry and rows with none. The Step-1 and Step-2 subsystem models
// are checked in internal/core (TestGainPatternMatchesGainPlanOnSubsystems).
func TestGainPatternMatchesGainPlan(t *testing.T) {
	nets := []*grid.Network{grid.Case14(), grid.Case30(), grid.Case118()}
	for _, areas := range []int{2, 4, 12} {
		n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	check := func(name string, n *grid.Network, ms []Measurement, ref int) {
		t.Helper()
		mod, err := NewModel(n, ms, ref, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if msg := gainPatternMismatch(mod); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
	for _, n := range nets {
		for _, ref := range []int{n.SlackIndex(), 0, n.N() - 1} {
			for plan, ms := range map[string][]Measurement{"full": FullPlan().Build(n), "rtu": RTUPlan(3).Build(n)} {
				check(fmt.Sprintf("%s/%s/ref %d", n.Name, plan, ref), n, ms, ref)
			}
		}
	}

	hand := handBuiltNetwork(t)
	sig := DefaultSigmas()
	var lone []Measurement
	for _, b := range hand.Buses {
		lone = append(lone, Measurement{Kind: Vmag, Bus: b.ID, Sigma: sig.Vmag}, Measurement{Kind: Angle, Bus: b.ID, Sigma: sig.Angle})
	}
	// Bus 10's injections reach 20 and 50; 40 has a Vmag row only, 30 (the
	// slack) an Angle row only.
	sparseSet := []Measurement{
		{Kind: Pinj, Bus: 10, Sigma: sig.Pinj}, {Kind: Qinj, Bus: 10, Sigma: sig.Qinj},
		{Kind: Vmag, Bus: 40, Sigma: sig.Vmag}, {Kind: Angle, Bus: 30, Sigma: sig.Angle},
	}
	for _, ref := range []int{hand.SlackIndex(), 0, hand.N() - 1} {
		for name, ms := range map[string][]Measurement{"full": FullPlan().Build(hand), "vmag+angle": lone, "sparse": sparseSet} {
			check(fmt.Sprintf("hand5/%s/ref %d", name, ref), hand, ms, ref)
		}
	}
}
