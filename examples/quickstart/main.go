// Quickstart: solve a power flow on the IEEE 14-bus system, simulate one
// SCADA scan, run centralized WLS state estimation, and compare the
// estimate with the true operating state.
package main

import (
	"fmt"
	"log"
	"math"

	gridse "repro"
)

func main() {
	net := gridse.Case14()

	// Ground truth: a converged AC power flow.
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	fmt.Printf("power flow converged in %d iterations (mismatch %.2e)\n",
		truth.Iterations, truth.Mismatch)

	// One SCADA scan: full metering, nominal meter noise.
	plan := gridse.FullPlan().Build(net)
	ms, err := gridse.SimulateMeasurements(net, plan, truth.State, 1.0, 42)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("simulated %d measurements (redundancy %.1fx)\n",
		len(ms), float64(len(ms))/float64(2*net.N()-1))

	// Weighted-least-squares state estimation (gain matrix solved by its LDLᵀ factor).
	est, err := gridse.Estimate(net, ms)
	if err != nil {
		log.Fatalf("estimate: %v", err)
	}
	fmt.Printf("WLS converged in %d Gauss-Newton iterations, %d inner CG iterations, J = %.1f\n\n",
		est.Iterations, est.CGIterations, est.ObjectiveJ)

	fmt.Println("bus |   true Vm    est Vm |  true Va°   est Va°")
	fmt.Println("----+---------------------+--------------------")
	var worst float64
	for i, b := range net.Buses {
		tv, ev := truth.State.Vm[i], est.State.Vm[i]
		ta, ea := deg(truth.State.Va[i]), deg(est.State.Va[i])
		fmt.Printf("%3d | %9.4f %9.4f | %9.3f %9.3f\n", b.ID, tv, ev, ta, ea)
		if d := math.Abs(tv - ev); d > worst {
			worst = d
		}
	}
	fmt.Printf("\nmax |Vm error| = %.5f pu\n", worst)
}

func deg(rad float64) float64 { return rad * 180 / math.Pi }
