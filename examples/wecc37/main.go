// The paper's ongoing work, realized: a DSE test case at the scale of the
// WECC (Western Electricity Coordinating Council) system with 37 balancing
// authorities. A synthetic interconnection of 37 IEEE-118 areas (4366
// buses) is decomposed along its balancing-authority borders, and the full
// two-step DSE runs one estimator per authority — compared against a
// single centralized estimation of the whole interconnection.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	gridse "repro"
	"repro/internal/grid"
)

func main() {
	var (
		areas = flag.Int("areas", 37, "number of balancing authorities")
		noise = flag.Float64("noise", 1.0, "meter noise level")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	net, err := grid.SynthWECC(grid.SynthOptions{Areas: *areas, Seed: *seed})
	if err != nil {
		log.Fatalf("synthesize: %v", err)
	}
	fmt.Printf("synthetic interconnection: %d buses, %d branches, %d areas\n",
		net.N(), len(net.Branches), *areas)

	start := time.Now()
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	fmt.Printf("ground-truth power flow: %d iterations in %v (sparse Newton)\n",
		truth.Iterations, time.Since(start).Round(time.Millisecond))

	// Decompose along balancing-authority borders — each area is one
	// subsystem, exactly the WECC arrangement the paper describes.
	dec, err := gridse.DecomposeWithParts(net, *areas, grid.AreaParts(net), 1)
	if err != nil {
		log.Fatalf("decompose: %v", err)
	}
	ties := len(dec.TieLines)
	fmt.Printf("decomposition: %d subsystems, %d inter-area tie lines, diameter %d\n",
		len(dec.Subsystems), ties, dec.Diameter())

	plan := gridse.FullPlan().Build(net)
	plan = append(plan, gridse.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := gridse.SimulateMeasurements(net, plan, truth.State, *noise, *seed)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("measurements: %d (redundancy %.1fx)\n",
		len(ms), float64(len(ms))/float64(2*net.N()-1))

	// Distributed: one estimator per balancing authority.
	start = time.Now()
	dse, err := gridse.RunDSE(context.Background(), dec, ms, gridse.DSEOptions{})
	if err != nil {
		log.Fatalf("dse: %v", err)
	}
	dseTime := time.Since(start)

	// Centralized baseline on the whole interconnection.
	start = time.Now()
	cen, err := gridse.Estimate(net, ms)
	if err != nil {
		log.Fatalf("centralized: %v", err)
	}
	cenTime := time.Since(start)

	var dseErr, cenErr float64
	for i := range truth.State.Vm {
		dseErr = math.Max(dseErr, math.Abs(dse.State.Vm[i]-truth.State.Vm[i]))
		cenErr = math.Max(cenErr, math.Abs(cen.State.Vm[i]-truth.State.Vm[i]))
	}
	fmt.Printf("\ncentralized WLS:   %8v   max|Vm err| %.5f pu\n",
		cenTime.Round(time.Millisecond), cenErr)
	fmt.Printf("distributed DSE:   %8v   max|Vm err| %.5f pu  (%d B exchanged, step1 %v, step2 %v)\n",
		dseTime.Round(time.Millisecond), dseErr, dse.ExchangeBytes,
		dse.Step1Stats.Duration.Round(time.Millisecond),
		dse.Step2Stats.Duration.Round(time.Millisecond))
	// Balancing-authority interchange accounting from the DSE solution.
	reps, err := interchangeReport(dec, dse.State)
	if err != nil {
		log.Fatalf("interchange: %v", err)
	}
	var maxExp, maxImp float64
	var expArea, impArea int
	for _, r := range reps {
		if r.NetExportMW > maxExp {
			maxExp, expArea = r.NetExportMW, r.Subsystem
		}
		if r.NetExportMW < maxImp {
			maxImp, impArea = r.NetExportMW, r.Subsystem
		}
	}
	fmt.Printf("\ninterchange (from the DSE solution): largest exporter BA %d at %+.1f MW, largest importer BA %d at %+.1f MW\n",
		expArea, maxExp, impArea, maxImp)

	fmt.Println("\nthe distributed estimators work on ~118-bus problems instead of one" +
		fmt.Sprintf(" %d-bus problem — the scaling the paper's architecture targets.", net.N()))
}
