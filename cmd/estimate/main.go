// Command estimate runs centralized WLS state estimation on a built-in
// case with simulated measurements and reports solver statistics and
// estimation accuracy.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"

	gridse "repro"
	"repro/internal/prof"
	"repro/internal/wls"
)

func main() {
	var (
		caseName = flag.String("case", "ieee118", "built-in case (ieee14|ieee30|ieee118)")
		areas    = flag.Int("areas", 0, "instead of -case, synthesize a multi-area grid with this many areas (12 = the 1 416-bus benchmark grid)")
		noise    = flag.Float64("noise", 1.0, "meter noise level (1 = nominal)")
		seed     = flag.Int64("seed", 42, "measurement noise seed")
		reuse    = flag.String("gain-reuse", wls.Options{}.GainReuse.String(), "drift-gated gain/factor reuse: gain (lag while the state stays inside the gate) or off (exact Gauss-Newton)")
		plan     = flag.String("plan", "full", "metering plan: full|rtu|pmu")
		baddata  = flag.Bool("baddata", false, "run chi-square bad-data detection")
		robust   = flag.Bool("robust", false, "use the Huber M-estimator")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()
	stopProfile, err := prof.StartCPU(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	// Interrupt (Ctrl-C) or SIGTERM cancels the solve cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var net *gridse.Network
	if *areas > 0 {
		net, err = gridse.SynthWECC(gridse.SynthOptions{Areas: *areas, Seed: 1})
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

	var planMs []gridse.Measurement
	switch *plan {
	case "full":
		planMs = gridse.FullPlan().Build(net)
	case "rtu":
		planMs = gridse.RTUPlan(*seed).Build(net)
	case "pmu":
		planMs = gridse.PMUOnlyPlan(net, 0.001)
	default:
		log.Fatalf("unknown plan %q", *plan)
	}
	ms, err := gridse.SimulateMeasurements(net, planMs, truth.State, *noise, *seed)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	var opts gridse.EstimatorOptions
	var ok bool
	if opts.GainReuse, ok = map[string]wls.GainReuseKind{"gain": wls.ReuseGain, "off": wls.ReuseOff}[*reuse]; !ok {
		log.Fatalf("unknown -gain-reuse %q (want gain or off)", *reuse)
	}

	var res *gridse.EstimatorResult
	if *robust {
		ref := net.SlackIndex()
		mod, err := gridse.NewMeasurementModel(net, ms, truth.State.Va[ref])
		if err != nil {
			log.Fatal(err)
		}
		rob, err := gridse.EstimateRobust(mod, gridse.RobustOptions{Inner: opts})
		if err != nil {
			log.Fatalf("robust estimate: %v", err)
		}
		fmt.Printf("Huber M-estimator: %d IRLS rounds, %d measurements down-weighted\n",
			rob.Reweights, len(rob.Downweighted))
		res = rob.Result
	} else {
		var err error
		res, err = gridse.EstimateContext(ctx, net, ms, opts)
		if err != nil {
			log.Fatalf("estimate: %v", err)
		}
	}
	fmt.Printf("case %s: %d measurements over %d states (redundancy %.2f)\n",
		net.Name, len(ms), 2*net.N()-1, float64(len(ms))/float64(2*net.N()-1))
	fmt.Printf("reuse %s: %d Gauss-Newton iterations (%d refreshes, %d lagged, %d guard rollbacks), J = %.2f\n",
		opts.GainReuse, res.Iterations, res.GainRefreshes, res.GainSkips, res.ReuseFallbacks, res.ObjectiveJ)

	var worstVm, worstVa float64
	for i := range truth.State.Vm {
		worstVm = math.Max(worstVm, math.Abs(res.State.Vm[i]-truth.State.Vm[i]))
		worstVa = math.Max(worstVa, math.Abs(res.State.Va[i]-truth.State.Va[i]))
	}
	fmt.Printf("max |Vm error| = %.5f pu, max |Va error| = %.5f rad\n", worstVm, worstVa)

	if *baddata {
		ref := net.SlackIndex()
		mod, err := gridse.NewMeasurementModel(net, ms, truth.State.Va[ref])
		if err != nil {
			log.Fatal(err)
		}
		full, err := wls.Estimate(mod, wls.Options{})
		if err != nil {
			log.Fatal(err)
		}
		threshold, suspect, err := gridse.ChiSquareTest(full, mod, 0.99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chi-square test: J = %.2f vs threshold %.2f -> bad data suspected: %v\n",
			full.ObjectiveJ, threshold, suspect)
	}
}
