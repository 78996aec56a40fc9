// The paper's headline scenario: decompose the IEEE 118-bus system into 9
// subsystems, map them onto 3 HPC clusters with the METIS-style cost-model
// mapping, and run the full two-step distributed state estimation over the
// MeDICi-style middleware — then compare against the centralized solution.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	gridse "repro"
)

func main() {
	var (
		subsystems = flag.Int("subsystems", 9, "number of subsystems (m)")
		clusters   = flag.Int("clusters", 3, "number of HPC clusters (p)")
		noise      = flag.Float64("noise", 1.0, "meter noise level (1 = nominal)")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	net := gridse.Case118()
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}

	// Preliminary step: decomposition + sensitivity analysis.
	dec, err := gridse.Decompose(net, *subsystems, gridse.DecomposeOptions{Seed: *seed})
	if err != nil {
		log.Fatalf("decompose: %v", err)
	}
	// The testbed a distributed run brings up stays with dec for the next
	// run until Close.
	defer dec.Close()
	fmt.Printf("decomposed %s into %d subsystems, %d tie lines (diameter %d)\n",
		net.Name, len(dec.Subsystems), len(dec.TieLines), dec.Diameter())
	for _, s := range dec.Subsystems {
		fmt.Printf("  subsystem %d: %2d buses, %d boundary, %d sensitive internal\n",
			s.Index, len(s.Buses), len(s.Boundary), len(s.Sensitive))
	}

	// Measurements: full SCADA metering plus the PMUs the DSE needs.
	plan := gridse.FullPlan().Build(net)
	plan = append(plan, gridse.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := gridse.SimulateMeasurements(net, plan, truth.State, *noise, *seed)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	// Full architecture run: map -> step 1 -> remap -> redistribute ->
	// exchange via middleware -> step 2 -> aggregate.
	res, err := gridse.RunDistributed(context.Background(), dec, ms, gridse.DistributedOptions{Clusters: *clusters})
	if err != nil {
		log.Fatalf("distributed DSE: %v", err)
	}
	fmt.Printf("\nmapping before step 1: assign=%v imbalance=%.3f\n",
		res.Step1Mapping.Assign, res.Step1Mapping.Imbalance)
	fmt.Printf("mapping before step 2: assign=%v imbalance=%.3f (migrated: %v)\n",
		res.Step2Mapping.Assign, res.Step2Mapping.Imbalance, res.Migrated)
	fmt.Printf("middleware traffic: %d messages, %d bytes\n", res.WireMessages, res.WireBytes)
	fmt.Printf("timings: map=%v acquire=%v step1=%v remap=%v redistribute=%v exchange=%v step2=%v total=%v\n",
		res.Timings.Map, res.Timings.Acquire, res.Timings.Step1, res.Timings.Remap,
		res.Timings.Redistribute, res.Timings.Exchange, res.Timings.Step2, res.Timings.Total)

	// Compare with the centralized estimator on the same measurements.
	cen, err := gridse.Estimate(net, ms)
	if err != nil {
		log.Fatalf("centralized: %v", err)
	}
	var dseVsTruth, cenVsTruth, dseVsCen float64
	for i := range truth.State.Vm {
		dseVsTruth = math.Max(dseVsTruth, math.Abs(res.State.Vm[i]-truth.State.Vm[i]))
		cenVsTruth = math.Max(cenVsTruth, math.Abs(cen.State.Vm[i]-truth.State.Vm[i]))
		dseVsCen = math.Max(dseVsCen, math.Abs(res.State.Vm[i]-cen.State.Vm[i]))
	}
	fmt.Printf("\nmax |Vm error|: DSE vs truth %.5f, centralized vs truth %.5f, DSE vs centralized %.5f\n",
		dseVsTruth, cenVsTruth, dseVsCen)
}
