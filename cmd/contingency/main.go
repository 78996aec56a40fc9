// Command contingency runs an N-1 contingency screen on a built-in or
// synthetic case. The default screen is the DC sweep over the true or
// estimated state; -estimate-cases upgrades it to pooled what-if AC
// estimation — every outage is re-estimated on its perturbed topology, and
// -frames re-screens the same contingency list across successive telemetry
// frames to exercise the pool's value-refresh + warm-start steady state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	gridse "repro"
	"repro/internal/contingency"
	"repro/internal/grid"
	"repro/internal/prof"
)

func main() {
	var (
		caseName  = flag.String("case", "ieee118", "built-in case (ieee14|ieee30|ieee118)")
		areas     = flag.Int("areas", 0, "instead of -case, synthesize a multi-area grid with this many areas")
		margin    = flag.Float64("margin", 1.3, "branch rating margin over base flow")
		floor     = flag.Float64("floor", 0.3, "minimum branch rating, pu")
		estimated = flag.Bool("estimated", false, "screen the WLS estimate instead of the true state")
		estCases  = flag.Bool("estimate-cases", false, "what-if estimation screen: re-estimate every outage on its perturbed topology (session-pooled)")
		frames    = flag.Int("frames", 1, "telemetry frames to re-screen with -estimate-cases")
		workers   = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		sched     = flag.String("sched", "counter", "case scheduling: static|counter")
		top       = flag.Int("top", 5, "worst violations to print")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()
	stopProfile, err := prof.StartCPU(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	// Interrupt (Ctrl-C) or SIGTERM cancels the screen cleanly: the sweeps
	// below check the context before every case.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var net *gridse.Network
	if *areas > 0 {
		net, err = grid.SynthWECC(grid.SynthOptions{Areas: *areas, Seed: 1})
	} else {
		net, err = gridse.CaseByName(*caseName)
	}
	if err != nil {
		log.Fatal(err)
	}
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	state := truth.State
	if *estimated {
		ms, err := gridse.SimulateMeasurements(net, gridse.FullPlan().Build(net), truth.State, 1, 1)
		if err != nil {
			log.Fatal(err)
		}
		est, err := gridse.EstimateContext(ctx, net, ms, gridse.EstimatorOptions{})
		if err != nil {
			log.Fatalf("estimate: %v", err)
		}
		state = est.State
	}

	ratings, err := contingency.AutoRatings(net, truth.State, *margin, *floor, contingency.Options{})
	if err != nil {
		log.Fatalf("ratings: %v", err)
	}
	var scheduling contingency.Scheduling
	switch *sched {
	case "static":
		scheduling = contingency.StaticScheduling
	case "counter":
		scheduling = contingency.CounterScheduling
	default:
		log.Fatalf("unknown scheduling %q", *sched)
	}
	popts := contingency.ParallelOptions{Workers: *workers, Scheduling: scheduling}

	if *estCases {
		screenPooled(ctx, net, truth, ratings, popts, *frames, *sched, *top)
		return
	}

	start := time.Now()
	results, err := contingency.ParallelScreen(ctx, net, state, ratings, popts)
	if err != nil {
		fatalScreen(ctx, err)
	}
	elapsed := time.Since(start)
	cases, islanding, insecure := contingency.Summary(results)
	fmt.Printf("case %s: %d N-1 cases in %v (%s scheduling)\n",
		net.Name, cases, elapsed.Round(time.Millisecond), *sched)
	fmt.Printf("islanding: %d, insecure: %d, secure: %d\n",
		islanding, insecure, cases-islanding-insecure)
	printWorst(net, results, *top)
}

// screenPooled runs the session-pooled what-if estimation sweep across
// telemetry frames: each frame simulates fresh noisy measurements, and the
// pool re-estimates every outage, paying skeleton cost only on frame 1.
func screenPooled(ctx context.Context, net *gridse.Network, truth *gridse.PowerFlowResult, ratings []float64, popts contingency.ParallelOptions, frames int, sched string, top int) {
	plan := gridse.FullPlan().Build(net)
	pool, err := contingency.NewPool(net, contingency.PoolOptions{})
	if err != nil {
		log.Fatalf("pool: %v", err)
	}
	var last []contingency.CaseEstimate
	for f := 0; f < frames; f++ {
		ms, err := gridse.SimulateMeasurements(net, plan, truth.State, 1, int64(f+1))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		results, stats, err := pool.Screen(ctx, ms, ratings, nil, popts)
		if err != nil {
			fatalScreen(ctx, err)
		}
		elapsed := time.Since(start)
		insecure := 0
		for _, r := range results {
			if len(r.Violations) > 0 {
				insecure++
			}
		}
		fmt.Printf("frame %d: %d what-if cases (%d islanding, %d insecure) in %v (%s scheduling)\n",
			f+1, stats.Cases, stats.Islanding, insecure, elapsed.Round(time.Millisecond), sched)
		fmt.Printf("  skeleton builds %d/%d, gain skips %d/%d, precond skips %d, warm starts %d, GN iters %d\n",
			stats.SkeletonBuilds, stats.Estimated,
			stats.GainSkips, stats.GainSkips+stats.GainRefreshes,
			stats.PrecondSkips, stats.WarmStarts, stats.GNIterations)
		last = results
	}
	var rs []contingency.Result
	for _, ce := range last {
		rs = append(rs, ce.Result)
	}
	printWorst(net, rs, top)
}

// fatalScreen distinguishes a Ctrl-C abort from a genuine screen failure.
func fatalScreen(ctx context.Context, err error) {
	if errors.Is(err, context.Canceled) || ctx.Err() != nil {
		log.Fatalf("screen canceled: %v", err)
	}
	log.Fatalf("screen: %v", err)
}

func printWorst(net *gridse.Network, results []contingency.Result, top int) {
	type worst struct {
		outage int
		v      contingency.Violation
	}
	var all []worst
	for _, r := range results {
		for _, v := range r.Violations {
			all = append(all, worst{r.Outage, v})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v.Loading > all[j].v.Loading })
	if len(all) > top {
		all = all[:top]
	}
	for _, w := range all {
		ob, vb := net.Branches[w.outage], net.Branches[w.v.Branch]
		fmt.Printf("  outage %d-%d -> %d-%d at %.0f%%\n",
			ob.From, ob.To, vb.From, vb.To, w.v.Loading*100)
	}
}
