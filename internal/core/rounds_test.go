package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
)

// Faults and deadlines in the rounds after the first, which a testbed run
// has had since it shares RunDSE's driver. IEEE-118 in 9 subsystems on 3
// clusters writes its 3 data requests first and then 6 bundles a round:
// writes 4–9 are round 0's exchange, 10–15 round 1's.

// TestRunDistributedPeerClosesInLaterRound: a site whose receiver goes away
// during round 1's exchange fails the run like one lost in round 0 — an
// error naming the exchange, within PhaseTimeout, no result built on the
// rounds before, no goroutine left — and the next run inherits nothing. The
// run asks for three rounds: the sites write concurrently, so both of round
// 1's bundles for the dying site can slip in ahead of the kill, and then it
// is round 2's exchange that finds it gone.
func TestRunDistributedPeerClosesInLaterRound(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	clean, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := goroutineBaseline()

	tr := &faultTransport{}
	tr.onWrite = func(n int) {
		if n == 11 { // the second bundle of round 1
			tr.kill(1)
		}
	}
	const phaseTimeout = 300 * time.Millisecond
	start := time.Now()
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters: 3, Transport: tr, PhaseTimeout: phaseTimeout, DSE: DSEOptions{Rounds: 3},
	})
	if err == nil || res != nil {
		t.Fatalf("run with a peer dead in round 1 returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the exchange: %v", err)
	}
	if elapsed := time.Since(start); elapsed > phaseTimeout+2*time.Second {
		t.Errorf("run took %v with a %v phase timeout", elapsed, phaseTimeout)
	}
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines leaked: %d before run, %d after settle", base, n)
	}
	rerunClean(t, fx, clean.WireMessages)
}

// TestRunDistributedCancelInLaterRound: cancellation landing on a bundle
// write of round 1 returns a wrapped context.Canceled naming the exchange,
// and the next run succeeds.
func TestRunDistributedCancelInLaterRound(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &faultTransport{}
	tr.onWrite = func(n int) {
		if n == 11 {
			cancel()
		}
	}
	res, err := RunDistributed(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3, Transport: tr, DSE: DSEOptions{Rounds: 2}})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled run returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the exchange: %v", err)
	}
	rerunClean(t, fx, 9)
}

// cancelAfterPhase is a placement that cancels the run as soon as the named
// phase has completed: a cancellation no solve and no transfer is there to
// notice, which only the driver's own check between rounds can.
type cancelAfterPhase struct {
	placement
	phase  string
	cancel context.CancelFunc
}

func (p cancelAfterPhase) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	err := p.placement.forEach(ctx, phase, f)
	if phase == p.phase {
		p.cancel()
	}
	return err
}

// TestCancelBetweenRounds: a run canceled after round 0's Step 2 has
// finished stops before round 1 with a wrapped context.Canceled that names
// the round, whatever the placement — there is one driver to check in.
func TestCancelBetweenRounds(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := NewSession(fx.dec, DSEOptions{})
	res, err := sess.runDSE(ctx, cancelAfterPhase{inProcess{d: fx.dec}, "step 2", cancel}, fx.ms, DSEOptions{Rounds: 3})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled run returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "before step 2 round 1") {
		t.Errorf("error does not name the round it stopped before: %v", err)
	}
}

// TestPhaseTimeoutIsPerRound: every round's exchange (and Step 2) gets a
// PhaseTimeout of its own. Over 25 ms links a round's exchange takes two
// bundles a site, 50 ms; six rounds of it outlast a 250 ms PhaseTimeout
// that no single round comes near, and the run succeeds.
func TestPhaseTimeoutIsPerRound(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	const phaseTimeout = 250 * time.Millisecond
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters:     3,
		Transport:    cluster.NewShapedTransport(cluster.LinkProfile{Latency: 25 * time.Millisecond}, nil),
		PhaseTimeout: phaseTimeout,
		DSE:          DSEOptions{Rounds: 6},
	})
	if err != nil {
		t.Fatalf("a run whose rounds each fit the phase timeout: %v", err)
	}
	if res.Timings.Exchange <= phaseTimeout {
		t.Errorf("six rounds exchanged in %v, inside one %v phase timeout: the test no longer tells per-round from per-run", res.Timings.Exchange, phaseTimeout)
	}
	if res.WireMessages != 3+6*6 {
		t.Errorf("%d middleware messages, want 3 requests + 6 rounds of 6 bundles", res.WireMessages)
	}
}
