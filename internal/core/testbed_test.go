package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/medici"
)

// countingTransport is loopback TCP that counts the connections it dials.
type countingTransport struct {
	medici.TCPTransport
	dials atomic.Int64
}

func (t *countingTransport) Dial(addr string) (net.Conn, error) {
	return t.DialContext(context.Background(), addr)
}

func (t *countingTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	t.dials.Add(1)
	return t.TCPTransport.DialContext(ctx, addr)
}

// requireSameDistributed fails unless got is want's run bit for bit: state,
// every Step-1 and Step-2 estimate, and the wire accounting.
func requireSameDistributed(t *testing.T, what string, got, want *DistributedResult) {
	t.Helper()
	requireSameRun(t, what, got.State, got.Step1, got.Step2, &DSEResult{State: want.State, Step1: want.Step1, Step2: want.Step2})
	if got.WireBytes != want.WireBytes || got.WireMessages != want.WireMessages {
		t.Fatalf("%s: %d messages / %d bytes, want %d / %d", what, got.WireMessages, got.WireBytes, want.WireMessages, want.WireBytes)
	}
}

// TestRunDistributedKeepsItsTestbed: the first run on a decomposition dials
// the testbed's nine links — three sites to the data source, six site to
// site — and every later run reuses them, dialing none, with the goroutine
// count flat; Close takes the count back to where it was before the first
// run.
func TestRunDistributedKeepsItsTestbed(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	base := goroutineBaseline()
	tr := &countingTransport{}
	opts := DistributedOptions{Clusters: 3, Transport: tr}
	first, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.dials.Load(); n != 9 {
		t.Errorf("first run dialed %d links, want 9", n)
	}
	up := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		res, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i+2, err)
		}
		requireSameDistributed(t, fmt.Sprintf("run %d", i+2), res, first)
		if n := waitGoroutines(up, time.Second); n > up+2 {
			t.Fatalf("run %d: %d goroutines, %d after the first run", i+2, n, up)
		}
	}
	if n := tr.dials.Load(); n != 9 {
		t.Errorf("51 runs dialed %d links, want the first run's 9", n)
	}
	fx.dec.Close()
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines after Close: %d, %d before the first run", n, base)
	}
}

// TestKeptTestbedMatchesFreshTestbeds: 30 frames in a row on one
// decomposition, its testbed kept from frame to frame, return what each
// frame returns on a decomposition of its own — state, every estimate and
// the wire accounting bit for bit — on both testbed drivers.
func TestKeptTestbedMatchesFreshTestbeds(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	defer fx.dec.Close()
	opts := DistributedOptions{Clusters: 3}
	fresh := func(t *testing.T) *Decomposition {
		d, err := Decompose(fx.net, 9, DecomposeOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for f := 0; f < 30; f++ {
		frame := frameFor(t, fx, 1, int64(100+f))
		what := fmt.Sprintf("frame %d", f)

		got, err := RunDistributed(context.Background(), fx.dec, frame, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d := fresh(t)
		want, err := RunDistributed(context.Background(), d, frame, opts)
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireSameDistributed(t, what, got, want)

		hier, err := RunHierarchical(context.Background(), fx.dec, frame, opts)
		if err != nil {
			t.Fatalf("%s, hierarchical: %v", what, err)
		}
		d = fresh(t)
		wantHier, err := RunHierarchical(context.Background(), d, frame, opts)
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, what+", hierarchical", hier.State, hier.Local, nil, &DSEResult{State: wantHier.State, Step1: wantHier.Local})
		if hier.CoordinatorBytes != wantHier.CoordinatorBytes {
			t.Fatalf("%s, hierarchical: %d bytes to the coordinator, want %d", what, hier.CoordinatorBytes, wantHier.CoordinatorBytes)
		}
	}
}

// TestRunDistributedCancelOnKeptTestbed: a run canceled mid-exchange on a
// kept testbed returns a wrapped context.Canceled and no result, and takes
// the testbed with it — its links may end in a half-written bundle — so the
// next run dials fresh links and returns a clean run's result bit for bit.
func TestRunDistributedCancelOnKeptTestbed(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	defer fx.dec.Close()
	tr := &faultTransport{}
	opts := DistributedOptions{Clusters: 3, Transport: tr}
	clean, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fx.dec.testbed == nil {
		t.Fatal("no testbed kept after a clean run")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr.mu.Lock()
	tr.onWrite = func(n int) {
		if n == 14 { // the second run's second bundle
			cancel()
		}
	}
	tr.mu.Unlock()
	res, err := RunDistributed(ctx, fx.dec, fx.ms, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled run returned %v, %v", res, err)
	}
	if fx.dec.testbed != nil {
		t.Error("a canceled run left its testbed in the slot")
	}

	dialed := tr.dialed()
	got, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatalf("run after a canceled one: %v", err)
	}
	if n := tr.dialed() - dialed; n != 9 {
		t.Errorf("run after a canceled one dialed %d links, want 9 fresh ones", n)
	}
	requireSameDistributed(t, "run after a canceled one", got, clean)
	rerunClean(t, fx, clean.WireMessages)
}

// TestKeptTestbedPeerDiesBetweenFrames: a site whose inbound links and
// listener go away while the kept testbed sits idle between two frames
// fails the next frame — within PhaseTimeout, with an error naming the
// phase, never with a result — and the frame after that runs on a fresh
// testbed and is clean.
func TestKeptTestbedPeerDiesBetweenFrames(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	defer fx.dec.Close()
	tr := &faultTransport{}
	const phaseTimeout = 300 * time.Millisecond
	opts := DistributedOptions{Clusters: 3, Transport: tr, PhaseTimeout: phaseTimeout}
	clean, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatal(err)
	}

	tr.kill(1)
	start := time.Now()
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err == nil || res != nil {
		t.Fatalf("frame after site 1 died returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the exchange: %v", err)
	}
	if elapsed := time.Since(start); elapsed > phaseTimeout+2*time.Second {
		t.Errorf("frame took %v with a %v phase timeout", elapsed, phaseTimeout)
	}

	got, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatalf("frame after the failed one: %v", err)
	}
	requireSameDistributed(t, "frame after the failed one", got, clean)
}

// TestRunDistributedConcurrentOnOneDecomposition: two goroutines running
// frames on one decomposition at once — one on the kept testbed, the other,
// while it is busy, on a private one — each get the sequential run's
// result bit for bit, and Close leaves no goroutine of the decomposition
// behind.
func TestRunDistributedConcurrentOnOneDecomposition(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	base := goroutineBaseline()
	const frames = 20
	opts := DistributedOptions{Clusters: 3}
	inputs := make([][]meas.Measurement, frames)
	want := make([]*DistributedResult, frames)
	for f := range inputs {
		inputs[f] = frameFor(t, fx, 1, int64(200+f))
		var err error
		if want[f], err = RunDistributed(context.Background(), fx.dec, inputs[f], opts); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][frames]*DistributedResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < frames && errs[g] == nil; f++ {
				got[g][f], errs[g] = RunDistributed(context.Background(), fx.dec, inputs[f], opts)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for f := range want {
			requireSameDistributed(t, fmt.Sprintf("goroutine %d frame %d", g, f), got[g][f], want[f])
		}
	}
	fx.dec.Close()
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines after Close: %d, %d before the first run", n, base)
	}
}

// uncomparableTransport is loopback TCP whose dynamic value == cannot
// compare.
type uncomparableTransport struct {
	medici.TCPTransport
	_ []int
}

// TestUncomparableTransportGetsItsOwnTestbed: a transport the slot cannot
// key on runs on a testbed of its own, which is gone when the run returns;
// the testbed kept under another key stays.
func TestUncomparableTransportGetsItsOwnTestbed(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	defer fx.dec.Close()
	opts := DistributedOptions{Clusters: 2}
	want, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	kept := fx.dec.testbed
	base := runtime.NumGoroutine()
	opts.Transport = uncomparableTransport{}
	got, err := RunDistributed(context.Background(), fx.dec, fx.ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDistributed(t, "run over an uncomparable transport", got, want)
	if fx.dec.testbed != kept {
		t.Error("a run over an uncomparable transport replaced the kept testbed")
	}
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines after the run: %d, %d before it", n, base)
	}
}

// TestDroppedDecompositionReleasesItsTestbed: a decomposition dropped
// without Close has its testbed closed once the garbage collector finds it
// unreachable, so nothing the testbed's goroutines hold leads back to it.
func TestDroppedDecompositionReleasesItsTestbed(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	base := goroutineBaseline()
	func() {
		d, err := Decompose(fx.net, 3, DecomposeOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunDistributed(context.Background(), d, fx.ms, DistributedOptions{Clusters: 2}); err != nil {
			t.Fatal(err)
		}
		if runtime.NumGoroutine() <= base {
			t.Fatal("the run kept no testbed up")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutines after the decomposition was dropped: %d, %d before it", n, base)
	}
}
