package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/wls"
)

// TestRunDSEPropagatesSubsystemFailure: when one subsystem's estimation
// cannot run (its reference PMU is missing), RunDSE must fail with an
// error naming the step rather than returning a silently wrong state.
func TestRunDSEPropagatesSubsystemFailure(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	// Strip the PMU angle at one subsystem's reference bus.
	victim := fx.dec.Subsystems[3]
	refID := fx.net.Buses[victim.RefBus].ID
	var ms []meas.Measurement
	for _, m := range fx.ms {
		if m.Kind == meas.Angle && m.Bus == refID {
			continue
		}
		ms = append(ms, m)
	}
	_, err := RunDSE(context.Background(), fx.dec, ms, DSEOptions{})
	if err == nil {
		t.Fatal("missing reference PMU not reported")
	}
	if !strings.Contains(err.Error(), "reference bus") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestRunDSEPropagatesUnobservableSubsystem: telemetry loss making one
// subsystem unobservable must surface as an estimation error for that
// subsystem.
func TestRunDSEPropagatesUnobservableSubsystem(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	victim := fx.dec.Subsystems[5]
	inVictim := make(map[int]bool)
	for _, b := range victim.Buses {
		inVictim[fx.net.Buses[b].ID] = true
	}
	// Drop every flow and injection inside the victim subsystem; keep only
	// voltages, which cannot pin the angles.
	var ms []meas.Measurement
	for _, m := range fx.ms {
		switch m.Kind {
		case meas.Pinj, meas.Qinj:
			if inVictim[m.Bus] {
				continue
			}
		case meas.Pflow, meas.Qflow:
			br := fx.net.Branches[m.Branch]
			if inVictim[br.From] && inVictim[br.To] {
				continue
			}
		}
		ms = append(ms, m)
	}
	_, err := RunDSE(context.Background(), fx.dec, ms, DSEOptions{})
	if err == nil {
		t.Fatal("unobservable subsystem not reported")
	}
}

// withoutBus drops every measurement whose value depends on the state of
// the bus with external id: its own voltage, angle, injection and flows, and
// the injections at its neighbours. What is left has two structurally empty
// Jacobian columns, θ and V of that bus, however many rows it keeps.
func withoutBus(n *grid.Network, ms []meas.Measurement, id int) []meas.Measurement {
	near := map[int]bool{id: true}
	for _, br := range n.Branches {
		if br.From == id || br.To == id {
			near[br.From], near[br.To] = true, true
		}
	}
	var kept []meas.Measurement
	for _, m := range ms {
		switch m.Kind {
		case meas.Pinj, meas.Qinj:
			if near[m.Bus] {
				continue
			}
		case meas.Pflow, meas.Qflow:
			if br := n.Branches[m.Branch]; br.From == id || br.To == id {
				continue
			}
		default: // Vmag, Angle
			if m.Bus == id {
				continue
			}
		}
		kept = append(kept, m)
	}
	return kept
}

// TestUntouchedStateIsUnobservable: m ≥ n says nothing about a state no
// measurement depends on. IEEE-14 without everything that sees bus 8 keeps
// 113 measurements for 27 states; the gain solve must refuse it with
// ErrUnobservable. Before the gain plan recorded empty columns the factor
// failed untyped.
func TestUntouchedStateIsUnobservable(t *testing.T) {
	fx := newFixture(t, grid.Case14, 2, 1)
	ms := withoutBus(fx.net, meas.FullPlan().Build(fx.net), 8)
	ms, err := meas.Simulate(fx.net, ms, fx.truth, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 113 {
		t.Fatalf("%d measurements left, want 113", len(ms))
	}
	t.Run("pcg-ldl", func(t *testing.T) {
		res, err := CentralizedEstimate(context.Background(), fx.net, ms, wls.Options{})
		if !errors.Is(err, wls.ErrUnobservable) {
			t.Fatalf("err = %v (result %v), want wls.ErrUnobservable", err, res != nil)
		}
	})
}

// TestRunDSEUntouchedStateSurvivesWrapping: the same defect inside one
// subsystem reaches RunDSE's caller still matching wls.ErrUnobservable,
// under the step and subsystem it came from.
func TestRunDSEUntouchedStateSurvivesWrapping(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	victim := fx.dec.Subsystems[4]
	boundary := intSet(victim.Boundary)
	id := 0
	for _, b := range victim.Buses {
		if !boundary[b] && b != victim.RefBus {
			id = fx.net.Buses[b].ID
			break
		}
	}
	if id == 0 {
		t.Fatal("subsystem 4 has no internal bus besides its reference")
	}
	_, err := RunDSE(context.Background(), fx.dec, withoutBus(fx.net, fx.ms, id), DSEOptions{})
	if !errors.Is(err, wls.ErrUnobservable) {
		t.Fatalf("err = %v, want wls.ErrUnobservable", err)
	}
	if !strings.Contains(err.Error(), "step 1 subsystem 4: ") || !strings.Contains(err.Error(), fmt.Sprintf(": no measurement touches the angle of bus %d", id)) {
		t.Fatalf("error lost its origin: %v", err)
	}
}

// TestDistributedBadDataCaughtLocally: a gross error inside one subsystem
// is flagged by that subsystem's own chi-square test after Step 1 — the
// distributed analogue of centralized detection, requiring no global data.
func TestDistributedBadDataCaughtLocally(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	// Corrupt an injection at an internal (non-boundary) bus of subsystem 2.
	victim := fx.dec.Subsystems[2]
	boundary := intSet(victim.Boundary)
	var targetBus int
	for _, b := range victim.Buses {
		if !boundary[b] {
			targetBus = fx.net.Buses[b].ID
			break
		}
	}
	idx := -1
	for i, m := range fx.ms {
		if m.Kind == meas.Pinj && m.Bus == targetBus {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no injection measurement at target bus")
	}
	bad, err := meas.InjectBadData(fx.ms, idx, 30)
	if err != nil {
		t.Fatal(err)
	}

	for si := range fx.dec.Subsystems {
		sp, err := fx.dec.BuildStep1(si, bad)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wls.Estimate(sp.Model, wls.Options{})
		if err != nil {
			t.Fatalf("subsystem %d: %v", si, err)
		}
		_, suspect, err := wls.ChiSquareTest(res, sp.Model, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if si == 2 && !suspect {
			t.Error("subsystem 2 did not detect its own bad datum")
		}
		if si != 2 && suspect {
			t.Errorf("subsystem %d false alarm on remote bad datum", si)
		}
	}
}
