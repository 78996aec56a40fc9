package sparse

import "fmt"

// BusInterleave returns the bus-interleaving permutation (perm[new] = old)
// from the stacked WLS state layout `[θ at non-reference buses; V at all
// buses]` to per-bus (θᵢ, Vᵢ) pairs — the layout that turns the gain
// matrix's bus couplings into dense 2×2 blocks (see BSR).
//
// nAngles must equal nBuses−1 and refBus names the bus without an angle
// variable; angle positions are assigned in ascending bus order skipping
// refBus (the meas.Model layout). busOrder, when non-nil, gives the bus
// visiting order (e.g. a fill-reducing ordering of the bus quotient graph,
// busOrder[new] = old); nil means ascending. The reference bus is always
// emitted last regardless of busOrder, so its lone V variable trails the
// (θ, V) pairs and the blocked matrix needs exactly one trailing padding
// slot (the identity row/col NewBSR2 appends).
//
// The program does not call it; it stays only because benchmark/replay.go
// does.
func BusInterleave(nAngles, nBuses, refBus int, busOrder []int) []int {
	if nAngles != nBuses-1 {
		panic(fmt.Sprintf("sparse: BusInterleave nAngles %d != nBuses-1 (%d)", nAngles, nBuses-1))
	}
	if refBus < 0 || refBus >= nBuses {
		panic(fmt.Sprintf("sparse: BusInterleave refBus %d out of range %d", refBus, nBuses))
	}
	if busOrder != nil {
		checkPerm(busOrder, nBuses, "BusInterleave")
	}
	perm := make([]int, 0, 2*nBuses-1)
	emit := func(b int) {
		if b == refBus {
			return
		}
		theta := b
		if b > refBus {
			theta = b - 1
		}
		perm = append(perm, theta, nAngles+b)
	}
	if busOrder != nil {
		for _, b := range busOrder {
			emit(b)
		}
	} else {
		for b := 0; b < nBuses; b++ {
			emit(b)
		}
	}
	return append(perm, nAngles+refBus)
}
