package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/wls"
)

// inOrder is a placement that runs a phase's subsystems in index order on
// the calling goroutine: the serial oracle the phase runner must agree with
// bit for bit.
type inOrder struct{ inProcess }

func (p inOrder) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	for si := range p.d.Subsystems {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s: canceled before subsystem %d: %w", phase, si, err)
		}
		if err := f(ctx, si); err != nil {
			return err
		}
	}
	return nil
}

// holdOthers is a placement whose phase tasks, all but subsystem 0's, wait
// for the phase context to be canceled before they run, and which counts
// the tasks that started. Subsystem 0's task is the phase's first claim, so
// when it fails at once, every participant holds at most one task then.
type holdOthers struct {
	placement
	started atomic.Int32
}

func (p *holdOthers) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	return p.placement.forEach(ctx, phase, func(ctx context.Context, si int) error {
		p.started.Add(1)
		if si != 0 {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				return errors.New("subsystem 0 failed and the phase context stayed live")
			}
		}
		return f(ctx, si)
	})
}

// TestPhaseErrorStopsUnclaimed: subsystem 0's Step-1 solve fails (a warm
// start of the wrong length); the phase cancels the solves in flight, and no
// subsystem claimed after the failure starts: at most one task per
// participant — the caller and GOMAXPROCS−1 helpers — ever ran. The joined
// error names the phase and the subsystem.
func TestPhaseErrorStopsUnclaimed(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 1)
	pl := &holdOthers{placement: inProcess{fx.dec}}
	_, err := NewSession(fx.dec, DSEOptions{}).runDSE(context.Background(), pl, fx.ms,
		DSEOptions{WarmStart: [][]float64{{1}}})
	if err == nil || !strings.Contains(err.Error(), "core: step 1 subsystem 0: wls: warm start length 1") {
		t.Fatalf("err = %v, want subsystem 0's Step-1 failure", err)
	}
	started, most := int(pl.started.Load()), min(runtime.GOMAXPROCS(0), len(fx.dec.Subsystems))
	if started < 1 || started > most {
		t.Errorf("%d of %d subsystems started, want 1..%d (one per participant)", started, len(fx.dec.Subsystems), most)
	}
}

// TestPhaseCancelWaitsForClaimed: the parent context is canceled by the
// phase's first task, and every other task waits for that cancel before it
// goes on, so no participant finishes a task before it and claims a second.
// forEach must then report the phase incomplete, and only after every task
// that was claimed has returned: each writes its result slot after a sleep,
// with no synchronization of its own, so an early return reads an empty
// slot (and -race reports the read).
func TestPhaseCancelWaitsForClaimed(t *testing.T) {
	fx := newFixture(t, grid.Case118, 9, 0)
	m := len(fx.dec.Subsystems)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, slots := make([]bool, m), make([]int, m)
	err := inProcess{fx.dec}.forEach(ctx, "step 2", func(ctx context.Context, si int) error {
		started[si] = true
		if si == 0 {
			cancel()
		}
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		slots[si] = si + 1
		return nil
	})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "core: step 2: canceled before all of it completed") {
		t.Fatalf("err = %v, want the phase reported canceled before it completed", err)
	}
	ran := 0
	for si := range started {
		if started[si] {
			ran++
			if slots[si] != si+1 {
				t.Errorf("forEach returned before subsystem %d, which it claimed, wrote its slot", si)
			}
		}
	}
	if most := min(runtime.GOMAXPROCS(0), m); ran < 1 || ran > most {
		t.Errorf("%d of %d subsystems ran after the cancel, want 1..%d", ran, m, most)
	}
}

// TestParkedHelperKeepsNoPhase: a helper that finishes its share of a phase
// and parks while the caller is still in a long task keeps nothing of the
// phase once it is over, so what the task closure holds can be collected.
func TestParkedHelperKeepsNoPhase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	if err := phases.run(context.Background(), "start", 2, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	phases.mu.Lock()
	helper := phases.helpers[0]
	phases.mu.Unlock()

	collected := make(chan struct{})
	func() {
		payload := new([64]int)
		runtime.SetFinalizer(payload, func(*[64]int) { close(collected) })
		var claimed atomic.Int32
		second := make(chan struct{})
		err := phases.run(context.Background(), "long", 2, func(_ context.Context, i int) error {
			payload[i] = i
			if claimed.Add(1) == 2 {
				close(second)
				return nil
			}
			// The first claim outlasts the second until the helper has parked
			// (when the helper made the first claim itself, the poll just
			// runs out).
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				return errors.New("nobody claimed the second task")
			}
			for start := time.Now(); !helper.parked.Load() && time.Since(start) < time.Second; {
				time.Sleep(100 * time.Microsecond)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished phase's task closure is still reachable")
		}
	}
}

// trackFrames steps a fresh tracker on dec through frames and returns its
// results, stopping at the first error.
func trackFrames(dec *Decomposition, frames [][]meas.Measurement) ([]*DSEResult, error) {
	tr := NewTracker(dec, DSEOptions{Rounds: 2})
	out := make([]*DSEResult, len(frames))
	for f, frame := range frames {
		res, err := tr.Step(context.Background(), frame)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", f, err)
		}
		out[f] = res
	}
	return out, nil
}

// TestConcurrentTrackersMatchOneAtATime: two trackers on two decompositions
// stepping at the same time — their phases contend for the runner's helpers,
// and the one that finds them busy runs on its caller alone — give, frame
// for frame, what each gives stepping alone.
func TestConcurrentTrackersMatchOneAtATime(t *testing.T) {
	fixtures := []*fixture{newFixture(t, grid.Case118, 9, 1), newFixture(t, grid.Case30, 3, 1)}
	frames := make([][][]meas.Measurement, len(fixtures))
	want := make([][]*DSEResult, len(fixtures))
	for k, fx := range fixtures {
		for f := 0; f < 24; f++ {
			frames[k] = append(frames[k], frameFor(t, fx, 1, int64(40+f%4)))
		}
		var err error
		if want[k], err = trackFrames(fx.dec, frames[k]); err != nil {
			t.Fatalf("%s alone: %v", fx.net.Name, err)
		}
	}
	got, errs := make([][]*DSEResult, len(fixtures)), make([]error, len(fixtures))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k, fx := range fixtures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[k], errs[k] = trackFrames(fx.dec, frames[k])
		}()
	}
	close(start)
	wg.Wait()
	for k, fx := range fixtures {
		if errs[k] != nil {
			t.Fatalf("%s beside another tracker: %v", fx.net.Name, errs[k])
		}
		for f, res := range got[k] {
			requireSameRun(t, fmt.Sprintf("%s frame %d beside another tracker", fx.net.Name, f), res.State, res.Step1, res.Step2, want[k][f])
		}
	}
}

// TestInProcessKernelWidth: an in-process run leaves the kernel pool only
// when its phase has a subsystem for every P, and never overrides a width
// the caller chose.
func TestInProcessKernelWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dec := newFixture(t, grid.Case118, 9, 0).dec
	for _, c := range []struct{ procs, workers, want int }{
		{1, 0, 1}, {2, 0, 1}, {9, 0, 1}, {10, 0, 0}, {2, 4, 4}, {16, 3, 3},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := inProcessOptions(dec, DSEOptions{WLS: wls.Options{Workers: c.workers}}).WLS.Workers; got != c.want {
			t.Errorf("9 subsystems, GOMAXPROCS %d, Workers %d: solves at %d, want %d", c.procs, c.workers, got, c.want)
		}
	}
}

// TestPhaseRunnerFollowsGOMAXPROCS: at GOMAXPROCS 1 a runner starts no
// helper — the phase is the caller's loop — and tracked frames at
// GOMAXPROCS 1, 2 and 4 are the same bits; at 4 the runner has its three
// helpers.
func TestPhaseRunnerFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	var solo phaseRunner
	ran := 0
	if err := solo.run(context.Background(), "solo", 9, func(context.Context, int) error { ran++; return nil }); err != nil || ran != 9 {
		t.Fatalf("solo phase: %d of 9 tasks ran, err %v", ran, err)
	}
	if len(solo.helpers) != 0 {
		t.Errorf("GOMAXPROCS 1 started %d helpers, want none", len(solo.helpers))
	}

	fx := newFixture(t, grid.Case118, 9, 1)
	var frames [][]meas.Measurement
	for f := 0; f < 3; f++ {
		frames = append(frames, frameFor(t, fx, 1, int64(70+f)))
	}
	var want []*DSEResult
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := trackFrames(fx.dec, frames)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if want == nil {
			want = got
			continue
		}
		for f, res := range got {
			requireSameRun(t, fmt.Sprintf("GOMAXPROCS %d frame %d", procs, f), res.State, res.Step1, res.Step2, want[f])
		}
	}
	phases.mu.Lock()
	helpers := len(phases.helpers)
	phases.mu.Unlock()
	if helpers < 3 {
		t.Errorf("after phases at GOMAXPROCS 4 the runner has %d helpers, want 3", helpers)
	}
}
