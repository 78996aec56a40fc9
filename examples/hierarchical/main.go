// Hierarchical state estimation — the architecture's other data-exchange
// structure (the top layer of the paper's Figure 1): balancing authorities
// estimate locally and forward their solutions to a reliability-coordinator
// site, which assembles the regional state. Compare its boundary accuracy
// against the peer-to-peer DSE run.
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
		subsystems = flag.Int("subsystems", 9, "number of balancing authorities")
		clusters   = flag.Int("clusters", 3, "number of HPC clusters")
		noise      = flag.Float64("noise", 1.0, "meter noise level")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	net := gridse.Case118()
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	dec, err := gridse.Decompose(net, *subsystems, gridse.DecomposeOptions{Seed: *seed})
	if err != nil {
		log.Fatalf("decompose: %v", err)
	}
	// The testbed a distributed run brings up stays with dec for the next
	// run until Close.
	defer dec.Close()
	plan := gridse.FullPlan().Build(net)
	plan = append(plan, gridse.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := gridse.SimulateMeasurements(net, plan, truth.State, *noise, *seed)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	hier, err := gridse.RunHierarchical(context.Background(), dec, ms, gridse.DistributedOptions{Clusters: *clusters})
	if err != nil {
		log.Fatalf("hierarchical: %v", err)
	}
	dse, err := gridse.RunDSE(context.Background(), dec, ms, gridse.DSEOptions{})
	if err != nil {
		log.Fatalf("dse: %v", err)
	}

	fmt.Printf("hierarchical run: %v, %d bytes to coordinator\n",
		hier.Duration, hier.CoordinatorBytes)

	// Boundary buses are where hierarchical (no peer exchange) loses to the
	// peer-to-peer DSE.
	var hierRMS, dseRMS float64
	var count int
	for _, s := range dec.Subsystems {
		for _, b := range s.Boundary {
			dh := hier.State.Va[b] - truth.State.Va[b]
			dd := dse.State.Va[b] - truth.State.Va[b]
			hierRMS += dh * dh
			dseRMS += dd * dd
			count++
		}
	}
	hierRMS = math.Sqrt(hierRMS / float64(count))
	dseRMS = math.Sqrt(dseRMS / float64(count))
	fmt.Printf("boundary-bus angle RMS error over %d buses:\n", count)
	fmt.Printf("  hierarchical (no peer exchange): %.6f rad\n", hierRMS)
	fmt.Printf("  distributed (step 2 exchange):   %.6f rad\n", dseRMS)
}
