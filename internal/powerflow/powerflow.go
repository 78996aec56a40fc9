// Package powerflow solves the AC power-flow problem with the full
// Newton–Raphson method in polar coordinates. Its solutions are the
// ground-truth operating states from which the measurement simulators draw
// SCADA and PMU data.
package powerflow

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// Options controls the Newton–Raphson iteration.
type Options struct {
	// Tol is the convergence tolerance on the power mismatch ‖ΔP,ΔQ‖∞ in
	// per-unit. Zero selects 1e-8.
	Tol float64
	// MaxIter caps the Newton iterations. Zero selects 30.
	MaxIter int
	// FlatStart initializes all angles to 0 and PQ magnitudes to 1 pu
	// instead of the values stored on the buses.
	FlatStart bool
}

// State is a solved (or candidate) operating point: voltage magnitude and
// angle per internal bus index.
type State struct {
	Vm []float64 // per-unit
	Va []float64 // radians
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	return State{Vm: append([]float64(nil), s.Vm...), Va: append([]float64(nil), s.Va...)}
}

// Result reports a power-flow solution.
type Result struct {
	State      State
	Iterations int
	Mismatch   float64 // final ‖ΔP,ΔQ‖∞, pu
	SlackP     float64 // slack active injection picked up, pu
	SlackQ     float64 // slack reactive injection, pu
}

// ErrDiverged reports that Newton–Raphson failed to converge.
var ErrDiverged = errors.New("powerflow: Newton-Raphson did not converge")

// Solve runs a full Newton–Raphson power flow on the network.
func Solve(n *grid.Network, opts Options) (*Result, error) {
	if !n.Connected() {
		return nil, fmt.Errorf("powerflow: network %q is not connected", n.Name)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 30
	}

	nb := n.N()
	y := grid.BuildYBus(n)
	pSched, qSched := n.NetInjections()

	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i, b := range n.Buses {
		if opts.FlatStart && b.Type == grid.PQ {
			vm[i] = 1
		} else if b.Vm > 0 {
			vm[i] = b.Vm
		} else {
			vm[i] = 1
		}
		if opts.FlatStart {
			va[i] = 0
		} else {
			va[i] = b.Va
		}
	}

	// Unknown orderings: angles at all non-slack buses, magnitudes at PQ buses.
	var pvpq, pq []int
	for i, b := range n.Buses {
		switch b.Type {
		case grid.Slack:
		case grid.PV:
			pvpq = append(pvpq, i)
		case grid.PQ:
			pvpq = append(pvpq, i)
			pq = append(pq, i)
		default:
			return nil, fmt.Errorf("powerflow: bus %d has invalid type %v", b.ID, b.Type)
		}
	}
	na := len(pvpq)
	nq := len(pq)
	posA := make(map[int]int, na) // bus index -> angle unknown position
	for k, i := range pvpq {
		posA[i] = k
	}
	posV := make(map[int]int, nq) // bus index -> magnitude unknown position
	for k, i := range pq {
		posV[i] = k
	}

	pCalc := make([]float64, nb)
	qCalc := make([]float64, nb)
	f := make([]float64, na+nq)
	// mismatch evaluates f = scheduled − calculated injections and returns
	// ‖f‖∞. A non-finite entry fails the solve by bus: it would never compare
	// above the worst so far, and the solve would "converge" on it.
	mismatch := func() (float64, error) {
		calcInjections(y, vm, va, pCalc, qCalc)
		for k, i := range pvpq {
			f[k] = pSched[i] - pCalc[i]
		}
		for k, i := range pq {
			f[na+k] = qSched[i] - qCalc[i]
		}
		worst := 0.0
		for k, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bus, kind := pvpq, "P"
				if k >= na {
					bus, kind, k = pq, "Q", k-na
				}
				return 0, fmt.Errorf("powerflow: %s mismatch %v at bus %d", kind, v, n.Buses[bus[k]].ID)
			}
			if a := math.Abs(v); a > worst {
				worst = a
			}
		}
		return worst, nil
	}
	step, err := newNewtonStep(na+nq, func(add func(r, c int, v float64)) {
		fillJacobian(add, y, vm, va, pCalc, qCalc, pvpq, pq, posA, posV)
	})
	if err != nil {
		return nil, fmt.Errorf("powerflow: %w", err)
	}

	res := &Result{}
	for iter := 0; iter <= maxIter; iter++ {
		worst, err := mismatch()
		if err != nil {
			return nil, err
		}
		res.Iterations = iter
		res.Mismatch = worst
		if worst <= tol {
			res.State = State{Vm: vm, Va: va}
			slack := n.SlackIndex()
			res.SlackP = pCalc[slack]
			res.SlackQ = qCalc[slack]
			return res, nil
		}
		if iter == maxIter {
			break
		}

		dx, err := step.solve(f)
		if err != nil {
			return nil, fmt.Errorf("powerflow: Jacobian solve at iteration %d: %w", iter, err)
		}
		for k, i := range pvpq {
			va[i] += dx[k]
		}
		for k, i := range pq {
			vm[i] += dx[na+k]
			if vm[i] < 0.1 {
				vm[i] = 0.1 // guard against wild Newton steps through zero
			}
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (mismatch %.3e)", ErrDiverged, maxIter, res.Mismatch)
}

// calcInjections evaluates the complex power injections
//
//	Pi = Vi Σj Vj (Gij cosθij + Bij sinθij)
//	Qi = Vi Σj Vj (Gij sinθij − Bij cosθij)
//
// for every bus into p and q.
func calcInjections(y *grid.YBus, vm, va, p, q []float64) {
	for i := 0; i < y.N; i++ {
		var pi, qi float64
		y.Row(i, func(j int, g, b float64) {
			th := va[i] - va[j]
			c, s := math.Cos(th), math.Sin(th)
			pi += vm[j] * (g*c + b*s)
			qi += vm[j] * (g*s - b*c)
		})
		p[i] = vm[i] * pi
		q[i] = vm[i] * qi
	}
}

// newtonStep solves the Newton system J·Δx = f through the normal equations
// JᵀJ·Δx = Jᵀf, on the kernels the estimator solves its gain system with: a
// GainPlan forms G = JᵀJ at unit weights and an LDLᵀ factor solves it. J's
// pattern, the plan and the factor's analysis depend on the network alone, so
// they are built once per solve; a step refills J, refreshes G and refactors
// it. Squaring J squares its condition number, but the stopping test is on
// the exactly evaluated mismatch, so a less accurate step can cost an
// iteration and never the accuracy of the solution.
type newtonStep struct {
	fill          func(add func(r, c int, v float64)) // emits J at the current state
	jac           *sparse.CSR
	slot          []int // the k-th entry fill emits lands in jac.Val[slot[k]]
	plan          *sparse.GainPlan
	ldl           *sparse.LDLFactor
	ones, rhs, dx []float64
}

// newNewtonStep lays out J's pattern from one fill and runs the symbolic
// work on it. A fill's values are never read here, only its entries.
func newNewtonStep(dim int, fill func(add func(r, c int, v float64))) (*newtonStep, error) {
	coo := sparse.NewCOO(dim, dim)
	fill(coo.Add)
	jac := coo.ToCSR()
	s := &newtonStep{fill: fill, jac: jac, slot: make([]int, 0, jac.NNZ()), plan: sparse.NewGainPlan(jac),
		ones: make([]float64, dim), rhs: make([]float64, dim), dx: make([]float64, dim)}
	fill(func(r, c int, _ float64) {
		k, _ := slices.BinarySearch(jac.ColIdx[jac.RowPtr[r]:jac.RowPtr[r+1]], c)
		s.slot = append(s.slot, jac.RowPtr[r]+k)
	})
	for i := range s.ones {
		s.ones[i] = 1
	}
	var err error
	s.ldl, err = sparse.AnalyzeLDL(s.plan.G)
	return s, err
}

// solve refills J at the current state and returns Δx; the slice is reused
// by the next call.
func (s *newtonStep) solve(f []float64) ([]float64, error) {
	clear(s.jac.Val)
	k := 0
	s.fill(func(_, _ int, v float64) {
		s.jac.Val[s.slot[k]] += v
		k++
	})
	if err := s.ldl.Refresh(s.plan.Refresh(s.jac, s.ones)); err != nil {
		return nil, err
	}
	s.jac.MulTransVec(s.rhs, f)
	s.ldl.Apply(s.dx, s.rhs)
	return s.dx, nil
}

// fillJacobian emits the entries of the Newton power-flow Jacobian
//
//	[ dP/dθ  dP/dV ]
//	[ dQ/dθ  dQ/dV ]
//
// restricted to the unknowns (angles at pvpq buses, magnitudes at pq
// buses) through the add callback.
func fillJacobian(add func(r, c int, v float64), y *grid.YBus, vm, va, pCalc, qCalc []float64,
	pvpq, pq []int, posA, posV map[int]int) {

	na := len(pvpq)

	for _, i := range pvpq {
		ri := posA[i]
		y.Row(i, func(k int, g, b float64) {
			th := va[i] - va[k]
			c, s := math.Cos(th), math.Sin(th)
			if k == i {
				// dPi/dθi = −Qi − Bii·Vi²
				add(ri, ri, -qCalc[i]-b*vm[i]*vm[i])
				if ci, ok := posV[i]; ok {
					// dPi/dVi = Pi/Vi + Gii·Vi
					add(ri, na+ci, pCalc[i]/vm[i]+g*vm[i])
				}
				return
			}
			// dPi/dθk = Vi·Vk·(G·sinθ − B·cosθ)
			if ck, ok := posA[k]; ok {
				add(ri, ck, vm[i]*vm[k]*(g*s-b*c))
			}
			// dPi/dVk = Vi·(G·cosθ + B·sinθ)
			if ck, ok := posV[k]; ok {
				add(ri, na+ck, vm[i]*(g*c+b*s))
			}
		})
	}
	for _, i := range pq {
		ri := na + posV[i]
		y.Row(i, func(k int, g, b float64) {
			th := va[i] - va[k]
			c, s := math.Cos(th), math.Sin(th)
			if k == i {
				// dQi/dθi = Pi − Gii·Vi²
				add(ri, posA[i], pCalc[i]-g*vm[i]*vm[i])
				// dQi/dVi = Qi/Vi − Bii·Vi
				add(ri, na+posV[i], qCalc[i]/vm[i]-b*vm[i])
				return
			}
			// dQi/dθk = −Vi·Vk·(G·cosθ + B·sinθ)
			if ck, ok := posA[k]; ok {
				add(ri, ck, -vm[i]*vm[k]*(g*c+b*s))
			}
			// dQi/dVk = Vi·(G·sinθ − B·cosθ)
			if ck, ok := posV[k]; ok {
				add(ri, na+ck, vm[i]*(g*s-b*c))
			}
		})
	}
}

// Injections recomputes (P, Q) bus injections in per-unit for a given state.
func Injections(n *grid.Network, st State) (p, q []float64) {
	y := grid.BuildYBus(n)
	p = make([]float64, n.N())
	q = make([]float64, n.N())
	calcInjections(y, st.Vm, st.Va, p, q)
	return p, q
}
