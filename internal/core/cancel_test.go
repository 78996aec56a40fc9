package core

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// weccFixture builds a multi-area synthetic interconnection, large enough
// that one Gauss–Newton iteration of a subsystem is real work. A cold run on
// it is tens of milliseconds, so a cancellation test that must land inside
// the estimation phase also gives the run more iterations or rounds than fit
// before its cancel.
func weccFixture(t *testing.T, areas int) *fixture {
	t.Helper()
	n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, MaxIter: 40})
	if err != nil {
		t.Fatalf("powerflow: %v", err)
	}
	dec, err := DecomposeWithParts(n, areas, grid.AreaParts(n), 1)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	plan := meas.FullPlan().Build(n)
	plan = append(plan, PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := meas.Simulate(n, plan, pf.State, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: n, truth: pf.State, dec: dec, ms: ms}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (plus a small allowance for runtime background goroutines) or the
// deadline passes, returning the final count.
func waitGoroutines(base int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutineBaseline returns the goroutine count a leak check compares
// against, taken once the phase runner has a helper for every extra P: the
// first in-process phase of a test binary starts them and they never exit,
// so a count taken before them would read them as a leak.
func goroutineBaseline() int {
	_ = phases.run(context.Background(), "baseline", runtime.GOMAXPROCS(0), func(context.Context, int) error { return nil })
	return runtime.NumGoroutine()
}

// TestRunDistributedCancelMidStep1: canceling the run context while the
// sites are grinding through Step 1 must abort the Gauss-Newton loops,
// return a wrapped context.Canceled within a second of the cancellation,
// and leave no goroutines behind. The estimators get a tolerance no step can
// meet and no iteration cap to speak of, and a PseudoSigma so small that
// Step 1's intermediate tolerance (Session.intermediateWLS) is that same
// tolerance, so Step 1 cannot end on its own and the error names it. The
// cancel fires once the session has started a Step-1 solve, however long
// set-up and acquisition took.
func TestRunDistributedCancelMidStep1(t *testing.T) {
	fx := weccFixture(t, 9)
	base := goroutineBaseline()
	dse := DSEOptions{PseudoSigma: 1e-300, WLS: wls.Options{Tol: 1e-300, MaxIter: 1 << 30}}
	sess := NewSession(fx.dec, dse) // the session RunDistributed takes
	fx.dec.session = sess

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt time.Time
	stop := make(chan struct{})
	defer close(stop)
	var started bool
	go func() {
		for deadline := time.Now().Add(time.Minute); sess.step1Solves.Load() == 0 && time.Now().Before(deadline); {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		started = sess.step1Solves.Load() > 0
		time.Sleep(10 * time.Millisecond) // well into the Gauss–Newton loops
		canceledAt = time.Now()
		cancel()
	}()

	_, err := RunDistributed(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3, DSE: dse})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error does not name Step 1: %v", err)
	}
	if canceledAt.IsZero() {
		t.Fatal("run finished before the cancel fired")
	}
	if !started {
		t.Fatal("no Step-1 solve started within a minute")
	}
	if d := returned.Sub(canceledAt); d > time.Second {
		t.Errorf("returned %v after cancellation, want < 1s", d)
	}
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines leaked: %d before run, %d after settle", base, n)
	}
}

// blackholeConn accepts writes and discards them; reads block until Close.
type blackholeConn struct {
	once sync.Once
	done chan struct{}
}

func newBlackholeConn() *blackholeConn { return &blackholeConn{done: make(chan struct{})} }

func (c *blackholeConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *blackholeConn) Read(p []byte) (int, error) {
	<-c.done
	return 0, net.ErrClosed
}
func (c *blackholeConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
func (c *blackholeConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *blackholeConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *blackholeConn) SetDeadline(time.Time) error      { return nil }
func (c *blackholeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

// dropAfterTransport passes the first `pass` dials through to real TCP and
// black-holes every later one, silently losing whatever is sent on them.
type dropAfterTransport struct {
	inner medici.TCPTransport
	mu    sync.Mutex
	pass  int
}

func (t *dropAfterTransport) take() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pass > 0 {
		t.pass--
		return true
	}
	return false
}

func (t *dropAfterTransport) Dial(addr string) (net.Conn, error) {
	return t.DialContext(context.Background(), addr)
}

func (t *dropAfterTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	if t.take() {
		return t.inner.DialContext(ctx, addr)
	}
	return newBlackholeConn(), nil
}

func (t *dropAfterTransport) Listen(addr string) (net.Listener, error) {
	return t.inner.Listen(addr)
}

// TestRunDistributedExchangeTimeout: when every inter-site pseudo packet
// is lost in flight, the exchange phase must give up at its PhaseTimeout
// with an error naming the phase — not busy-poll forever.
func TestRunDistributedExchangeTimeout(t *testing.T) {
	fx := newFixture(t, grid.Case30, 3, 1)
	// The only real dials before the exchange are the 3 acquire fetches
	// (NoMapping on 3 clusters migrates nothing); every exchange send then
	// lands on a black-hole connection and its envelope is lost.
	tr := &dropAfterTransport{pass: 3}
	start := time.Now()
	_, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters:     3,
		NoMapping:    true,
		Transport:    tr,
		PhaseTimeout: 300 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the stuck phase: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v with a 300ms phase timeout", elapsed)
	}
}

// TestRunDSECancelPropagates: RunDSE (the in-process flow) also honors
// cancellation between Gauss-Newton iterations. The run is given far more
// Step-2 rounds than fit before the cancel, so it cannot finish first.
func TestRunDSECancelPropagates(t *testing.T) {
	fx := weccFixture(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := RunDSE(ctx, fx.dec, fx.ms, DSEOptions{Rounds: 2000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// cancelInPhase is a placement that cancels the run as the named phase's
// first subsystem starts, so every solve of that phase sees a canceled
// context.
type cancelInPhase struct {
	placement
	phase  string
	cancel context.CancelFunc
}

func (p cancelInPhase) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	if phase != p.phase {
		return p.placement.forEach(ctx, phase, f)
	}
	var once sync.Once
	return p.placement.forEach(ctx, phase, func(ctx context.Context, si int) error {
		once.Do(p.cancel)
		return f(ctx, si)
	})
}

// TestTrackerCancelMidStep2: a tracked frame canceled inside Step 2 returns
// a wrapped context.Canceled naming the phase, leaves no goroutine behind
// (the baseline is taken after the first frames, which start the phase
// runner's helpers and the kernels' worker pool for good), and the
// tracker's next frame is the one a tracker that never saw the canceled
// frame computes. The canceled frame's Step 1 ran to the end, so under the
// default reuse tier its engines' lagged gains moved on, and the two agree
// to the Gauss–Newton tolerance; with reuse off they agree bit for bit.
func TestTrackerCancelMidStep2(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	first, next := frameFor(t, fx, 1, 60), frameFor(t, fx, 1, 61)
	for _, reuse := range []wls.GainReuseKind{wls.ReuseGain, wls.ReuseOff} {
		opts := DSEOptions{Rounds: 2, WLS: wls.Options{GainReuse: reuse}}
		canceled, clean := NewTracker(fx.dec, opts), NewTracker(fx.dec, opts)
		for _, tr := range []*Tracker{canceled, clean} {
			if _, err := tr.Step(context.Background(), first); err != nil {
				t.Fatal(err)
			}
		}
		base := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		res, err := canceled.stepOn(ctx, cancelInPhase{inProcess{fx.dec}, "step 2", cancel}, next)
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("reuse %v: canceled frame returned %v, %v", reuse, res, err)
		}
		if !strings.Contains(err.Error(), "step 2") {
			t.Errorf("reuse %v: error does not name Step 2: %v", reuse, err)
		}
		if n := waitGoroutines(base, 5*time.Second); n > base+2 {
			t.Errorf("reuse %v: goroutines leaked: %d before the canceled frame, %d after settle", reuse, base, n)
		}

		got, err := canceled.Step(context.Background(), next)
		if err != nil {
			t.Fatalf("reuse %v: frame after the canceled one: %v", reuse, err)
		}
		want, err := clean.Step(context.Background(), next)
		if err != nil {
			t.Fatal(err)
		}
		if canceled.Frames != clean.Frames {
			t.Errorf("reuse %v: tracker counts %d frames after a canceled one, a clean tracker %d", reuse, canceled.Frames, clean.Frames)
		}
		if reuse == wls.ReuseOff {
			requireSameRun(t, "frame after a canceled one, reuse off", got.State, got.Step1, got.Step2, want)
			continue
		}
		for i := range want.State.Vm {
			if math.Abs(got.State.Vm[i]-want.State.Vm[i]) > 1e-6 || math.Abs(got.State.Va[i]-want.State.Va[i]) > 1e-6 {
				t.Errorf("frame after a canceled one: bus %d at %v/%v, a clean tracker %v/%v",
					i, got.State.Vm[i], got.State.Va[i], want.State.Vm[i], want.State.Va[i])
			}
		}
	}
}

// faultTransport is loopback TCP with two fault hooks for the persistent
// links. onWrite runs before the n-th write (1-based, counted across
// connections) on any dialed connection: in the first RunDistributed on 3
// sites writes 1–3 are the sites' data requests and 4 onward the bundles of
// the exchange (the default IEEE-118 run migrates nothing); a second run on
// the kept testbed writes 10–12 and 13–18. kill(i) closes the i-th listener
// and every connection it accepted — a peer whose receiver goes away with
// its inbound links still up; a testbed's sites are listeners 0..2 and its
// data source listener 3. dials counts the connections dialed.
type faultTransport struct {
	medici.TCPTransport
	onWrite func(n int)

	mu        sync.Mutex
	writes    int
	dials     int
	listeners []*faultListener
}

type faultListener struct {
	net.Listener
	mu       sync.Mutex
	accepted []net.Conn
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.accepted = append(l.accepted, conn)
		l.mu.Unlock()
	}
	return conn, err
}

type faultConn struct {
	net.Conn
	tr *faultTransport
}

func (c faultConn) Write(b []byte) (int, error) {
	c.tr.mu.Lock()
	c.tr.writes++
	n := c.tr.writes
	c.tr.mu.Unlock()
	if c.tr.onWrite != nil {
		c.tr.onWrite(n)
	}
	return c.Conn.Write(b)
}

func (t *faultTransport) Dial(addr string) (net.Conn, error) {
	return t.DialContext(context.Background(), addr)
}

func (t *faultTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := t.TCPTransport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.dials++
	t.mu.Unlock()
	return faultConn{conn, t}, nil
}

// dialed returns how many connections have been dialed so far.
func (t *faultTransport) dialed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials
}

func (t *faultTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.TCPTransport.Listen(addr)
	if err != nil {
		return nil, err
	}
	fl := &faultListener{Listener: ln}
	t.mu.Lock()
	t.listeners = append(t.listeners, fl)
	t.mu.Unlock()
	return fl, nil
}

func (t *faultTransport) kill(i int) {
	t.mu.Lock()
	l := t.listeners[i]
	t.mu.Unlock()
	l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, conn := range l.accepted {
		conn.Close()
	}
}

// rerunClean checks that a failed run left the decomposition usable: the
// next run on it, over a healthy network, succeeds with the full exchange.
func rerunClean(t *testing.T, fx *fixture, wantMessages int) {
	t.Helper()
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatalf("run after a failed one: %v", err)
	}
	if res.WireMessages != wantMessages {
		t.Errorf("run after a failed one moved %d messages, want %d", res.WireMessages, wantMessages)
	}
	for i := range fx.truth.Vm {
		if d := math.Abs(res.State.Va[i] - fx.truth.Va[i]); d > 0.03 {
			t.Errorf("run after a failed one: bus %d Va error %g", fx.net.Buses[i].ID, d)
		}
	}
}

// TestRunDistributedPeerClosesMidExchange: a site whose receiver goes away
// while envelopes are in flight must fail the run — a wrapped error naming
// the exchange, within PhaseTimeout, never a result built from half an
// exchange — and the next run must not inherit anything from it.
func TestRunDistributedPeerClosesMidExchange(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	clean, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}

	tr := &faultTransport{}
	tr.onWrite = func(n int) {
		if n == 5 { // the second of six bundles: a link is up, at most one bundle delivered
			tr.kill(1)
		}
	}
	const phaseTimeout = 300 * time.Millisecond
	start := time.Now()
	res, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{
		Clusters: 3, Transport: tr, PhaseTimeout: phaseTimeout,
	})
	if err == nil || res != nil {
		t.Fatalf("run with a dead peer returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the exchange: %v", err)
	}
	if elapsed := time.Since(start); elapsed > phaseTimeout+2*time.Second {
		t.Errorf("run took %v with a %v phase timeout", elapsed, phaseTimeout)
	}
	rerunClean(t, fx, clean.WireMessages)
}

// TestRunDistributedCancelMidSend: cancellation landing on an envelope
// write returns a wrapped context.Canceled naming the exchange, leaves no
// goroutine behind, and the next run succeeds.
func TestRunDistributedCancelMidSend(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	clean, err := RunDistributed(context.Background(), fx.dec, fx.ms, DistributedOptions{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := goroutineBaseline()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &faultTransport{}
	tr.onWrite = func(n int) {
		if n == 5 {
			cancel()
		}
	}
	start := time.Now()
	res, err := RunDistributed(ctx, fx.dec, fx.ms, DistributedOptions{Clusters: 3, Transport: tr})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled run returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "exchange") {
		t.Errorf("error does not name the exchange: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled run took %v", elapsed)
	}
	if n := waitGoroutines(base, 5*time.Second); n > base+2 {
		t.Errorf("goroutines leaked: %d before run, %d after settle", base, n)
	}
	rerunClean(t, fx, clean.WireMessages)
}

// closeOrderTransport is loopback TCP that records, per connection, which
// end called Close first. Both ends of a connection share the key
// "dialer address>listener address".
type closeOrderTransport struct {
	medici.TCPTransport
	mu    sync.Mutex
	first map[string]string // link -> "dialing" | "accepting"
	dials int
}

type closeOrderConn struct {
	net.Conn
	tr        *closeOrderTransport
	link, end string
}

func (c closeOrderConn) Close() error {
	c.tr.mu.Lock()
	if _, seen := c.tr.first[c.link]; !seen {
		c.tr.first[c.link] = c.end
	}
	c.tr.mu.Unlock()
	return c.Conn.Close()
}

type closeOrderListener struct {
	net.Listener
	tr *closeOrderTransport
}

func (l closeOrderListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return closeOrderConn{conn, l.tr, conn.RemoteAddr().String() + ">" + conn.LocalAddr().String(), "accepting"}, nil
}

func (t *closeOrderTransport) Dial(addr string) (net.Conn, error) {
	return t.DialContext(context.Background(), addr)
}

func (t *closeOrderTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := t.TCPTransport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.dials++
	t.mu.Unlock()
	return closeOrderConn{conn, t, conn.LocalAddr().String() + ">" + conn.RemoteAddr().String(), "dialing"}, nil
}

func (t *closeOrderTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.TCPTransport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return closeOrderListener{ln, t}, nil
}

// checkClosedFromDialingEnd fails unless every link tr dialed has been
// closed, each first by the end that dialed it.
func checkClosedFromDialingEnd(t *testing.T, what string, tr *closeOrderTransport) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.first) != tr.dials {
		t.Errorf("%s: %d of %d dialed links closed", what, len(tr.first), tr.dials)
	}
	for link, end := range tr.first {
		if end != "dialing" {
			t.Errorf("%s: link %s was closed first by its %s end", what, link, end)
		}
	}
}

// TestRunsHangUpFromTheDialingEnd: every link of a run — site to site, site
// to data source, site to coordinator — stays up on the kept testbed from
// one run to the next, and is closed first by the end that dialed it when
// the links do go: after a failed run and at Decomposition.Close. So
// TIME_WAIT never lands on a listener's port (DESIGN §12: a testbed brought
// up per run otherwise slows every later Listen to milliseconds).
func TestRunsHangUpFromTheDialingEnd(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	for name, run := range map[string]func(context.Context, DistributedOptions) error{
		"distributed": func(ctx context.Context, o DistributedOptions) error {
			_, err := RunDistributed(ctx, fx.dec, fx.ms, o)
			return err
		},
		"hierarchical": func(ctx context.Context, o DistributedOptions) error {
			_, err := RunHierarchical(ctx, fx.dec, fx.ms, o)
			return err
		},
	} {
		tr := &closeOrderTransport{first: make(map[string]string)}
		opts := DistributedOptions{Clusters: 3, Transport: tr}
		for i := 0; i < 2; i++ {
			if err := run(context.Background(), opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		tr.mu.Lock()
		dialed, closed := tr.dials, len(tr.first)
		tr.mu.Unlock()
		if dialed < 3 || closed != 0 {
			t.Errorf("%s: two runs dialed %d links and closed %d, want ≥ 3 kept up", name, dialed, closed)
		}

		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(canceled, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on a canceled context: %v", name, err)
		}
		checkClosedFromDialingEnd(t, name+", after a failed run", tr)

		if err := run(context.Background(), opts); err != nil {
			t.Fatalf("%s after a failed run: %v", name, err)
		}
		fx.dec.Close()
		checkClosedFromDialingEnd(t, name+", at Close", tr)
	}
}
