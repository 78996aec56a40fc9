// Topology processing feeding state estimation: the IEEE-14 system with
// bus 4 modeled at the node-breaker level as a two-section busbar. With
// the bus-section breaker closed, the consolidated model is the standard
// 14-bus network; opening the breaker splits bus 4 into two buses and
// changes the network topology — the estimator then runs on the new model.
package main

import (
	"fmt"
	"log"
	"math"

	gridse "repro"
	"repro/internal/grid"
)

// buildStation expands IEEE-14 into a node model where bus 4 has two
// sections: section A (node 40) keeps the lines to buses 5 and 7, section
// B (node 41) the lines to 2, 3 and 9 plus the load.
func buildStation() *NodeModel {
	base := gridse.Case14()
	m := &NodeModel{Name: "ieee14-bus4-split", BaseMVA: base.BaseMVA}
	for _, b := range base.Buses {
		if b.ID == 4 {
			secA := b
			secA.Pd, secA.Qd = 0, 0 // load lives on section B
			m.Nodes = append(m.Nodes, Node{ID: 40, Bus: secA})
			secB := b
			secB.Type = grid.PQ
			m.Nodes = append(m.Nodes, Node{ID: 41, Bus: secB})
			continue
		}
		m.Nodes = append(m.Nodes, Node{ID: b.ID * 10, Bus: b})
	}
	m.Switches = []Switch{{Name: "bus4-section", A: 40, B: 41, Closed: true}}
	for _, br := range base.Branches {
		nb := br
		nb.From, nb.To = br.From*10, br.To*10
		// Re-terminate bus-4 circuits on the right section.
		fix := func(end *int, other int) {
			if *end != 40 {
				return
			}
			switch other {
			case 50, 70: // lines 4-5 and 4-7 stay on section A
				*end = 40
			default: // 2-4, 3-4, 4-9 move to section B
				*end = 41
			}
		}
		fix(&nb.From, nb.To)
		fix(&nb.To, nb.From)
		m.Branches = append(m.Branches, nb)
	}
	for _, g := range base.Gens {
		ng := g
		ng.Bus = g.Bus * 10
		m.Gens = append(m.Gens, ng)
	}
	return m
}

func estimateOn(n *gridse.Network, label string) {
	truth, err := gridse.SolvePowerFlow(n)
	if err != nil {
		log.Fatalf("%s: power flow: %v", label, err)
	}
	ms, err := gridse.SimulateMeasurements(n, gridse.FullPlan().Build(n), truth.State, 1, 7)
	if err != nil {
		log.Fatalf("%s: simulate: %v", label, err)
	}
	est, err := gridse.Estimate(n, ms)
	if err != nil {
		log.Fatalf("%s: estimate: %v", label, err)
	}
	var worst float64
	for i := range truth.State.Vm {
		worst = math.Max(worst, math.Abs(est.State.Vm[i]-truth.State.Vm[i]))
	}
	fmt.Printf("%-22s %2d buses, %2d branches | PF %d iters | SE max|Vm err| %.5f pu\n",
		label+":", n.N(), len(n.Branches), truth.Iterations, worst)
	// Report the angle spread across the (possibly split) bus 4 sections.
	if i40, ok := n.Index(40); ok {
		if i41, ok2 := n.Index(41); ok2 {
			fmt.Printf("%-22s bus 4 sections: θ40 = %.4f°, θ41 = %.4f° (split apart)\n", "",
				truth.State.Va[i40]*180/math.Pi, truth.State.Va[i41]*180/math.Pi)
		} else {
			fmt.Printf("%-22s bus 4 consolidated as bus 40\n", "")
		}
	}
}

func main() {
	station := buildStation()

	con, err := station.Consolidate()
	if err != nil {
		log.Fatalf("consolidate: %v", err)
	}
	fmt.Println("breaker CLOSED — sections merge back to the standard 14-bus model")
	estimateOn(con.Network, "closed configuration")

	if err := station.SetSwitch("bus4-section", false); err != nil {
		log.Fatal(err)
	}
	con2, err := station.Consolidate()
	if err != nil {
		log.Fatalf("re-consolidate: %v", err)
	}
	fmt.Println("\nbreaker OPEN — topology processor splits bus 4 into two buses")
	estimateOn(con2.Network, "split configuration")
}
