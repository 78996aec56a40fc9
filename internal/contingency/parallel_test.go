package contingency

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
)

func TestParallelScreenMatchesSerial(t *testing.T) {
	n := grid.Case118()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 1.3, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serial, err := Screen(ctx, n, st, ratings, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		par, err := ParallelScreen(ctx, n, st, ratings, ParallelOptions{
			Workers: 4, Scheduling: sched,
		})
		if err != nil {
			t.Fatalf("scheduling %d: %v", sched, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("scheduling %d: %d cases vs serial %d", sched, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Outage != serial[i].Outage || par[i].Islanding != serial[i].Islanding {
				t.Fatalf("scheduling %d: case %d differs", sched, i)
			}
			if len(par[i].Violations) != len(serial[i].Violations) {
				t.Fatalf("scheduling %d: case %d has %d violations vs %d",
					sched, i, len(par[i].Violations), len(serial[i].Violations))
			}
			for j := range serial[i].Violations {
				if par[i].Violations[j] != serial[i].Violations[j] {
					t.Fatalf("scheduling %d: violation %d/%d differs", sched, i, j)
				}
			}
		}
	}
}

func TestParallelScreenSingleWorker(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParallelScreen(context.Background(), n, st, ratings, ParallelOptions{Workers: 1, Scheduling: CounterScheduling})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(n.InService()) {
		t.Fatalf("%d cases", len(res))
	}
}

func TestParallelScreenValidation(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ctx := context.Background()
	if _, err := ParallelScreen(ctx, n, st, []float64{1}, ParallelOptions{}); err == nil {
		t.Fatal("short ratings accepted")
	}
	ratings := make([]float64, len(n.Branches))
	if _, err := ParallelScreen(ctx, n, st, ratings, ParallelOptions{Scheduling: Scheduling(9)}); err == nil {
		t.Fatal("bad scheduling accepted")
	}
}

func TestParallelScreenCancellation(t *testing.T) {
	n := grid.Case14()
	st := solved(t, n)
	ratings, err := AutoRatings(n, st, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ParallelScreen(ctx, n, st, ratings, ParallelOptions{Workers: 4})
	if err == nil {
		t.Fatal("pre-canceled context accepted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("partial results returned on cancellation")
	}
}

// TestScheduleDeterministicError drives the shared scheduler with injected
// per-case failures and checks that, under both scheduling modes and any
// worker count, the reported error is always the lowest failing case's —
// not whichever worker happened to record its error last.
func TestScheduleDeterministicError(t *testing.T) {
	const nCases = 40
	failAt := map[int]bool{7: true, 13: true, 31: true}
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		for _, workers := range []int{1, 3, 8} {
			for rep := 0; rep < 25; rep++ {
				var mu sync.Mutex
				ran := make(map[int]bool)
				err := schedule(context.Background(), nCases, workers, sched, func(k int) error {
					mu.Lock()
					ran[k] = true
					mu.Unlock()
					if failAt[k] {
						return fmt.Errorf("case %d failed", k)
					}
					return nil
				})
				if err == nil || err.Error() != "case 7 failed" {
					t.Fatalf("sched=%v workers=%d rep=%d: got error %v, want case 7's", sched, workers, rep, err)
				}
				// Every case below the lowest failure must have run, so the
				// winner can never be preempted by an unseen earlier failure.
				mu.Lock()
				for k := 0; k < 7; k++ {
					if !ran[k] {
						t.Fatalf("sched=%v workers=%d: case %d below the failure watermark skipped", sched, workers, k)
					}
				}
				mu.Unlock()
			}
		}
	}
}

// TestScheduleMidSweepCancellation cancels the context from inside the fifth
// case and checks the sweep stops early and reports the cancellation, not a
// case error. Every case started after the cancelling one waits for the
// cancellation before it returns, so how far the sweep gets is decided by
// schedule — no worker draws a case once ctx is done — and not by whether
// cancel() lands before the other workers drain 195 no-op cases.
func TestScheduleMidSweepCancellation(t *testing.T) {
	const nCases, workers, cancelAt = 200, 4, 5
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		ran := 0
		err := schedule(ctx, nCases, workers, sched, func(k int) error {
			mu.Lock()
			ran++
			n := ran
			mu.Unlock()
			switch {
			case n == cancelAt:
				cancel()
			case n > cancelAt:
				<-ctx.Done()
			}
			return nil
		})
		cancel()
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("sched=%v: got %v, want wrapped context.Canceled", sched, err)
		}
		// At the cancellation each other worker has at most one case in hand.
		if ran > cancelAt+workers-1 {
			t.Fatalf("sched=%v: %d cases ran, want at most %d after a cancellation in case %d", sched, ran, cancelAt+workers-1, cancelAt)
		}
	}
}

// TestScheduleRunsEachCaseOnce checks the error-free path covers every case
// exactly once under both modes.
func TestScheduleRunsEachCaseOnce(t *testing.T) {
	const nCases = 57
	for _, sched := range []Scheduling{StaticScheduling, CounterScheduling} {
		counts := make([]int, nCases)
		var mu sync.Mutex
		if err := schedule(context.Background(), nCases, 5, sched, func(k int) error {
			mu.Lock()
			counts[k]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("sched=%v: %v", sched, err)
		}
		for k, c := range counts {
			if c != 1 {
				t.Fatalf("sched=%v: case %d ran %d times", sched, k, c)
			}
		}
	}
}
