package powerflow

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// denseNewton is the reference Solve is held to: the same flat-start Newton
// loop — mismatch, stop at ‖f‖∞ ≤ 1e-8, the 0.1 pu magnitude clamp — with
// every step J·Δx = f solved by dense LU on J as fillJacobian emits it. It
// returns the state and the iteration count.
func denseNewton(t *testing.T, n *grid.Network, maxIter int) (State, int) {
	t.Helper()
	nb := n.N()
	y := grid.BuildYBus(n)
	pSched, qSched := n.NetInjections()
	vm, va := make([]float64, nb), make([]float64, nb)
	var pvpq, pq []int
	posA, posV := map[int]int{}, map[int]int{}
	for i, b := range n.Buses {
		vm[i] = 1
		if b.Type != grid.PQ && b.Vm > 0 {
			vm[i] = b.Vm
		}
		if b.Type != grid.Slack {
			posA[i] = len(pvpq)
			pvpq = append(pvpq, i)
		}
		if b.Type == grid.PQ {
			posV[i] = len(pq)
			pq = append(pq, i)
		}
	}
	na := len(pvpq)
	p, q := make([]float64, nb), make([]float64, nb)
	f := make([]float64, na+len(pq))
	for iter := 0; iter <= maxIter; iter++ {
		calcInjections(y, vm, va, p, q)
		for k, i := range pvpq {
			f[k] = pSched[i] - p[i]
		}
		for k, i := range pq {
			f[na+k] = qSched[i] - q[i]
		}
		if sparse.NormInf(f) <= 1e-8 {
			return State{Vm: vm, Va: va}, iter
		}
		j := sparse.NewDense(len(f), len(f))
		fillJacobian(j.AddAt, y, vm, va, p, q, pvpq, pq, posA, posV)
		dx, err := sparse.SolveDense(j, f)
		if err != nil {
			t.Fatalf("dense Newton step %d: %v", iter, err)
		}
		for k, i := range pvpq {
			va[i] += dx[k]
		}
		for k, i := range pq {
			vm[i] = max(vm[i]+dx[na+k], 0.1)
		}
	}
	t.Fatalf("dense Newton did not converge in %d iterations", maxIter)
	return State{}, 0
}

// TestSolveMatchesDenseNewton: Solve's LDLᵀ(JᵀJ) step takes as many Newton
// iterations as dense LU on J, from IEEE-14 to 944 synthetic buses, and
// lands within 1e-10 of its state.
func TestSolveMatchesDenseNewton(t *testing.T) {
	synth := func(areas int) func() *grid.Network {
		return func() *grid.Network {
			n, err := grid.SynthWECC(grid.SynthOptions{Areas: areas, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	for _, c := range []struct {
		name string
		net  func() *grid.Network
	}{
		{"ieee14", grid.Case14}, {"ieee30", grid.Case30}, {"ieee118", grid.Case118},
		{"synthwecc2", synth(2)}, {"synthwecc4", synth(4)}, {"synthwecc8", synth(8)},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.net()
			res, err := Solve(n, Options{FlatStart: true, MaxIter: 40})
			if err != nil {
				t.Fatal(err)
			}
			want, iters := denseNewton(t, n, 40)
			if res.Iterations != iters {
				t.Errorf("%d Newton iterations, dense LU takes %d", res.Iterations, iters)
			}
			for i := range want.Vm {
				if dv, da := math.Abs(res.State.Vm[i]-want.Vm[i]), math.Abs(res.State.Va[i]-want.Va[i]); dv > 1e-10 || da > 1e-10 {
					t.Fatalf("bus %d: |ΔVm| %.2e, |ΔVa| %.2e from the dense-LU state", n.Buses[i].ID, dv, da)
				}
			}
		})
	}
}
