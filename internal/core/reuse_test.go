package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/wls"
)

// TestTrackerSteadyFramesSkipGainRefresh: under the tracker default
// (ReuseGain), steady-state frames run most gain-solve iterations on the
// previous frame's numerics — more than half of the iterations after the
// cold frame skip the gain refresh entirely — without losing accuracy.
func TestTrackerSteadyFramesSkipGainRefresh(t *testing.T) {
	// The subtest names the gain solve the body runs on: the LDLᵀ factor.
	t.Run("ldl", func(t *testing.T) {
		fx := newFixture(t, grid.Case118, 9, 1)
		tracker := NewTracker(fx.dec, DSEOptions{Rounds: 2})

		var skips, refreshes, fallbacks int
		for f := 0; f < 5; f++ {
			res, err := tracker.Process(frameFor(t, fx, 1, int64(60+f)))
			if err != nil {
				t.Fatalf("frame %d: %v", f, err)
			}
			var worst float64
			for i := range res.State.Vm {
				if d := math.Abs(res.State.Vm[i] - fx.truth.Vm[i]); d > worst {
					worst = d
				}
			}
			if worst > 0.05 {
				t.Fatalf("frame %d max Vm error %g under ReuseGain tracking", f, worst)
			}
			if f == 0 {
				continue // cold frame builds the anchors
			}
			skips += res.Step1Stats.GainSkips + res.Step2Stats.GainSkips
			refreshes += res.Step1Stats.GainRefreshes + res.Step2Stats.GainRefreshes
			fallbacks += res.Step1Stats.ReuseFallbacks + res.Step2Stats.ReuseFallbacks
		}
		total := skips + refreshes
		if total == 0 {
			t.Fatal("no gain-solve iterations counted")
		}
		if 2*skips <= total {
			t.Fatalf("steady frames skipped %d/%d gain refreshes (want >50%%)", skips, total)
		}
		t.Logf("steady frames: %d/%d gain refreshes skipped, %d guard fallbacks", skips, total, fallbacks)
	})
}

// TestStandaloneRunsStayBitIdentical: the reuse anchors a tracking or
// repeated run leaves behind must not leak into standalone runs — the
// session resets them, so back-to-back RunDSE calls over the same data
// match exactly.
func TestStandaloneRunsStayBitIdentical(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	frame := frameFor(t, fx, 1, 77)
	opts := DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: wls.ReuseGain}}

	first, err := RunDSE(t.Context(), fx.dec, frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDSE(t.Context(), fx.dec, frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.State.Vm {
		if first.State.Vm[i] != second.State.Vm[i] || first.State.Va[i] != second.State.Va[i] {
			t.Fatalf("bus %d: repeated standalone runs diverge (%.17g/%.17g vs %.17g/%.17g)",
				i, first.State.Vm[i], first.State.Va[i], second.State.Vm[i], second.State.Va[i])
		}
	}
}
