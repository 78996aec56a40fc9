package wls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/sparse"
)

// weccModel is the 12-area, 1 416-bus SynthWECC under the full plan: its
// gain is above sparse.ParallelNNZThreshold, so on a pool of two a cold
// solve analyzes beside its first step and factors on the pool.
func weccModel(t *testing.T) *meas.Model {
	t.Helper()
	return engineTestModel(t, synthWECC(t, 12), 1, 4)
}

// pooledEngine is an engine on pool, which has two workers whatever
// GOMAXPROCS is, so the overlap and the split engage under -cpu 1 too.
func pooledEngine(mod *meas.Model, pool *sparse.Pool) *Engine {
	e := NewEngine(mod)
	e.pool = pool
	return e
}

func assertSameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.ObjectiveJ) != math.Float64bits(want.ObjectiveJ) {
		t.Fatalf("%s: J = %v, want %v", what, got.ObjectiveJ, want.ObjectiveJ)
	}
	for name, p := range map[string][2][]float64{"x": {got.X, want.X}, "r": {got.Residuals, want.Residuals}} {
		for i := range p[1] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, p[0][i], p[1][i])
			}
		}
	}
}

// TestOverlappedAnalysisMatchesInline: a cold 1 416-bus solve whose LDLᵀ
// analysis runs beside its first step lands on the estimate, residuals and
// J of the same solve with the analysis inline, bit for bit, under the
// lagged default and exact Gauss–Newton.
func TestOverlappedAnalysisMatchesInline(t *testing.T) {
	mod := weccModel(t)
	pool := sparse.NewPool(2)
	defer pool.Close()
	for _, opts := range []Options{{}, {GainReuse: ReuseOff}} {
		over := pooledEngine(mod, pool)
		if over.startAnalysis(over.gplan.G, opts); over.analysis == nil {
			t.Fatal("a cold solve on a pool of two did not start its analysis")
		}
		got, err := over.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		inline := pooledEngine(mod, pool)
		inline.inlineAnalysis = true
		if inline.startAnalysis(inline.gplan.G, opts); inline.analysis != nil {
			t.Fatal("the test hook did not keep the analysis inline")
		}
		want, err := inline.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "overlapped against inline analysis", got, want)
		if over.analysis != nil || over.ldl == nil {
			t.Fatal("the solve did not join its analysis")
		}
	}
}

// TestPendingAnalysis: an analysis still running when the solve that
// started it returns early — canceled, or failed before its first factor —
// is joined by the engine's next use of the factor, and by CloneFor, so
// that clones share its one analysis; ColdStart leaves it be. Every solve
// afterwards equals a fresh engine's, the clones run concurrently with the
// base engine (go test -race), and no goroutine outlives the test.
func TestPendingAnalysis(t *testing.T) {
	mod := weccModel(t)
	pool := sparse.NewPool(2)
	defer pool.Close()
	want, err := pooledEngine(mod, pool).Estimate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// Canceled at its first iteration, after the analysis started.
	e := pooledEngine(mod, pool)
	if _, err := e.EstimateCtx(canceled, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: %v", err)
	}
	if e.analysis == nil {
		t.Fatal("the canceled solve left no analysis pending")
	}
	// Unobservable before any step: the analysis stays pending.
	h := e.jplan.H
	for m := 0; m < h.Rows; m++ {
		for _, c := range h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]] {
			if c == 5 {
				if err := e.MaskMeasurement(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := e.Estimate(Options{}); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("masked state 5: %v, want ErrUnobservable", err)
	}
	if e.analysis == nil {
		t.Fatal("the unobservable solve joined the analysis")
	}
	e.UnmaskAll()
	e.ColdStart()
	got, err := e.Estimate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after a cancellation and an unobservable solve", got, want)

	// CloneFor joins the pending analysis and shares it.
	e = pooledEngine(mod, pool)
	if _, err := e.EstimateCtx(canceled, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: %v", err)
	}
	clones := make([]*Engine, 3)
	for i := range clones {
		if clones[i], err = e.CloneFor(mod); err != nil {
			t.Fatal(err)
		}
		clones[i].pool = pool
		if e.analysis != nil || clones[i].ldl == nil || clones[i].ldl == e.ldl {
			t.Fatalf("clone %d: base pending %v, clone factor %p, base factor %p", i, e.analysis != nil, clones[i].ldl, e.ldl)
		}
	}
	var wg sync.WaitGroup
	for _, eng := range append(clones, e) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := eng.Estimate(Options{})
			if err != nil {
				t.Error(err)
				return
			}
			assertSameResult(t, "a clone made while the analysis ran", got, want)
		}()
	}
	wg.Wait()

	// An engine dropped with its analysis pending leaks nothing.
	if _, err := pooledEngine(mod, pool).EstimateCtx(canceled, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the pending analyses", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneShotEarlyAnalysisEnds: a one-shot solve starts its analysis on the
// model's gain pattern before it builds a plan, so it may fail with the
// analysis running. On a model with a state no row touches it still returns
// ErrUnobservable naming that state (the analysis, refused by the missing
// diagonal, drops its error), and on a context canceled before the first
// step the wrapped context.Canceled; both return without waiting for the
// analysis, whose goroutine then ends on its own, leaving its result in the
// unjoined analysis. The frame path's goroutine, once it has claimed the
// pattern, is left the same way: a frame NewModel rejects — a meter at an
// unknown bus, a flow on a branch out of service, a NaN value — returns
// NewModel's error (the goroutine refuses the frame and analyzes nothing),
// and a canceled context the wrapped context.Canceled. GOMAXPROCS 2 puts the
// analysis on its goroutine also under -cpu 1 on a machine with two CPUs or
// more.
func TestOneShotEarlyAnalysisEnds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	full := weccModel(t)
	// Drop every row that touches the magnitude of bus 7, which leaves its
	// angle untouched too.
	col := full.NState() - full.Net.N() + 7
	h := full.NewJacobianPlan().H
	var kept []meas.Measurement
	for m := 0; m < h.Rows; m++ {
		if !slices.Contains(h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]], col) {
			kept = append(kept, full.Meas[m])
		}
	}
	ref := full.Net.SlackIndex()
	holed, err := meas.NewModel(full.Net, kept, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(full, Options{}); err != nil { // starts the shared pool's workers
		t.Fatal(err)
	}
	if sparse.DefaultPool().Workers() < 2 {
		t.Log("one worker: the analysis runs inline, only the errors are checked")
	}
	baseline := runtime.NumGoroutine()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		_, err := Estimate(holed, Options{})
		if want := fmt.Sprintf("no measurement touches the angle of bus %d", full.Net.Buses[7].ID); !errors.Is(err, ErrUnobservable) || !strings.Contains(err.Error(), want) {
			t.Fatalf("untouched state: %v, want ErrUnobservable naming %q", err, want)
		}
		if _, err := EstimateCtx(canceled, full, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled before the first step: %v, want context.Canceled", err)
		}
	}

	claimed := func(job *frameJob) {
		for !job.claimed.Load() {
			runtime.Gosched()
		}
	}
	flow := slices.IndexFunc(full.Meas, func(m meas.Measurement) bool { return m.Kind == meas.Pflow })
	outNet := full.Net.Clone()
	outNet.Branches[full.Meas[flow].Branch].Status = false
	unknown := append(slices.Clone(full.Meas), meas.Measurement{Kind: meas.Vmag, Bus: -7, Sigma: 0.01})
	nan := slices.Clone(full.Meas)
	nan[3].Value = math.NaN()
	for _, c := range []struct {
		name string
		net  *grid.Network
		ms   []meas.Measurement
	}{{"unknown bus", full.Net, unknown}, {"flow out of service", outNet, full.Meas}, {"NaN value", full.Net, nan}} {
		_, want := meas.NewModel(c.net, c.ms, ref, 0)
		if want == nil {
			t.Fatalf("%s: NewModel accepts the frame", c.name)
		}
		for i := 0; i < 5; i++ {
			if _, err := estimateFrame(context.Background(), c.net, c.ms, ref, 0, Options{}, claimed); err == nil || err.Error() != want.Error() {
				t.Fatalf("frame path, %s: %v, want NewModel's %v", c.name, err, want)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := estimateFrame(canceled, full.Net, full.Meas, ref, 0, Options{}, claimed); !errors.Is(err, context.Canceled) {
			t.Fatalf("frame path, canceled before the first step: %v, want context.Canceled", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the failed solves", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
