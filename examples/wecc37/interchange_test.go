package main

import (
	"context"
	"math"
	"testing"

	gridse "repro"
)

// newFixture decomposes IEEE-118 into nine subsystems and simulates its
// full measurement plan with PMUs at the reference buses.
func newFixture(t *testing.T, noise float64) (*gridse.Decomposition, gridse.State, []gridse.Measurement) {
	t.Helper()
	n := gridse.Case118()
	pf, err := gridse.SolvePowerFlow(n)
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	dec, err := gridse.Decompose(n, 9, gridse.DecomposeOptions{Seed: 1})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	plan := gridse.FullPlan().Build(n)
	plan = append(plan, gridse.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := gridse.SimulateMeasurements(n, plan, pf.State, noise, 11)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return dec, pf.State, ms
}

func TestInterchangeReportBalances(t *testing.T) {
	dec, truth, _ := newFixture(t, 0)
	reps, err := interchangeReport(dec, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 9 {
		t.Fatalf("%d reports", len(reps))
	}
	// System-wide: exports must cancel up to tie-line losses, which for
	// the IEEE-118 tie set are a few MW.
	var total, totalAbs float64
	for _, r := range reps {
		if len(r.TieFlowsMW) != len(dec.TieLinesOf(r.Subsystem)) {
			t.Fatalf("subsystem %d: %d flows for %d ties", r.Subsystem, len(r.TieFlowsMW), len(dec.TieLinesOf(r.Subsystem)))
		}
		total += r.NetExportMW
		totalAbs += math.Abs(r.NetExportMW)
	}
	if totalAbs == 0 {
		t.Fatal("no interchange at all on a decomposed 4 GW system")
	}
	if math.Abs(total) > 0.05*totalAbs+20 {
		t.Errorf("net system interchange %0.1f MW does not cancel (gross %0.1f MW)", total, totalAbs)
	}
	// Per-flow consistency: each flow magnitude is physically plausible.
	for _, r := range reps {
		for i, f := range r.TieFlowsMW {
			if math.IsNaN(f) || math.Abs(f) > 1000 {
				t.Fatalf("subsystem %d tie %d flow %v MW implausible", r.Subsystem, i, f)
			}
		}
	}
}

func TestInterchangeFromEstimateMatchesTruth(t *testing.T) {
	dec, truth, ms := newFixture(t, 1)
	res, err := gridse.RunDSE(context.Background(), dec, ms, gridse.DSEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromTruth, err := interchangeReport(dec, truth)
	if err != nil {
		t.Fatal(err)
	}
	fromEst, err := interchangeReport(dec, res.State)
	if err != nil {
		t.Fatal(err)
	}
	for si := range fromTruth {
		d := math.Abs(fromTruth[si].NetExportMW - fromEst[si].NetExportMW)
		// Angle errors of ~1 mrad across several x≈0.02 pu ties sum to
		// tens of MW on a 4 GW system; 40 MW (≈1%) is the expected scale.
		if d > 40 {
			t.Errorf("subsystem %d interchange error %.1f MW", si, d)
		}
	}
}
