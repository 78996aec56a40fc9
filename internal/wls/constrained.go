package wls

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// Equality-constrained WLS (Hachtel's augmented-matrix family): structural
// zero injections — transit buses with no load or generation — are exact
// network facts, not noisy telemetry. Modeling them as very-high-weight
// virtual measurements (the TestZeroInjectionVirtualMeasurements approach)
// ill-conditions the gain matrix; the constrained estimator instead solves
// the KKT system of
//
//	min (z − h(x))ᵀ W (z − h(x))   s.t.  c(x) = 0
//
// at each Gauss–Newton step:
//
//	[ HᵀWH  Cᵀ ] [Δx]   [ HᵀW·r ]
//	[ C      0 ] [λ ]  = [ −c(x) ]
//
// where C is the constraint Jacobian. The augmented matrix is indefinite,
// so it is solved with partially pivoted dense LU.

// Constraint declares one exact zero-injection constraint at a bus.
type Constraint struct {
	Kind meas.Kind // Pinj or Qinj
	Bus  int       // external bus number
}

// ConstrainedResult extends Result with constraint diagnostics.
type ConstrainedResult struct {
	*Result
	// MaxConstraintViolation is max |c(x̂)| over all constraints, pu.
	MaxConstraintViolation float64
	// Lambda holds the final Lagrange multipliers, one per constraint.
	Lambda []float64
}

// ErrBadConstraint reports an unsupported constraint specification.
var ErrBadConstraint = errors.New("wls: constraint must be a Pinj or Qinj at a known bus")

// EstimateConstrained runs equality-constrained Gauss–Newton WLS. The
// constraints are enforced exactly (to solver precision) rather than
// weighted into the objective.
func EstimateConstrained(mod *meas.Model, constraints []Constraint, opts Options) (*ConstrainedResult, error) {
	tol, maxIter := opts.limits()
	nc := len(constraints)
	if nc == 0 {
		res, err := Estimate(mod, opts)
		if err != nil {
			return nil, err
		}
		return &ConstrainedResult{Result: res}, nil
	}
	// Constraint evaluator: a zero-sigma-free model over the same network.
	cms := make([]meas.Measurement, nc)
	for i, c := range constraints {
		if c.Kind != meas.Pinj && c.Kind != meas.Qinj {
			return nil, fmt.Errorf("%w: kind %v", ErrBadConstraint, c.Kind)
		}
		if _, ok := mod.Net.Index(c.Bus); !ok {
			return nil, fmt.Errorf("%w: bus %d", ErrBadConstraint, c.Bus)
		}
		cms[i] = meas.Measurement{Kind: c.Kind, Bus: c.Bus, Sigma: 1, Value: 0}
	}
	cmod, err := meas.NewModel(mod.Net, cms, mod.RefBus(), mod.RefAngle())
	if err != nil {
		return nil, err
	}
	if mod.NMeas()+nc < mod.NState() {
		return nil, fmt.Errorf("%w: %d measurements + %d constraints < %d states",
			ErrUnobservable, mod.NMeas(), nc, mod.NState())
	}

	n := mod.NState()
	x := mod.FlatVec()
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), n)
		}
		copy(x, opts.X0)
	}
	w := mod.Weights()
	z := make([]float64, mod.NMeas())
	for i, m := range mod.Meas {
		z[i] = m.Value
	}

	// Symbolic plans for both the measurement model and the constraint
	// evaluator: the per-iteration KKT assembly refreshes numerics only.
	jplan := mod.NewJacobianPlan()
	gplan := sparse.NewGainPlan(jplan.H)
	cplan := cmod.NewJacobianPlan()
	pool := sparse.DefaultPool()
	h := make([]float64, mod.NMeas())
	wr := make([]float64, mod.NMeas())
	cval := make([]float64, nc)
	// The (n+nc) × (n+nc) KKT system, reassembled every iteration; b's
	// first n entries are HᵀW·r.
	kkt := sparse.NewDense(n+nc, n+nc)
	b := make([]float64, n+nc)

	out := &ConstrainedResult{Result: &Result{}}
	r := make([]float64, mod.NMeas())
	for iter := 0; iter < maxIter; iter++ {
		jplan.EvalInto(h, x)
		sparse.Sub(r, z, h)
		hj := jplan.Refresh(x)
		g := gplan.RefreshPool(hj, w, pool)
		sparse.GainRHSInto(b[:n], hj, w, r, wr)
		cplan.EvalInto(cval, x)
		cj := cplan.Refresh(x)

		clear(kkt.Data)
		for i := 0; i < g.Rows; i++ {
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				kkt.AddAt(i, g.ColIdx[k], g.Val[k])
			}
		}
		for ci := 0; ci < nc; ci++ {
			for k := cj.RowPtr[ci]; k < cj.RowPtr[ci+1]; k++ {
				col := cj.ColIdx[k]
				v := cj.Val[k]
				kkt.AddAt(n+ci, col, v)
				kkt.AddAt(col, n+ci, v)
			}
		}
		for ci := 0; ci < nc; ci++ {
			b[n+ci] = -cval[ci]
		}
		sol, err := sparse.SolveDense(kkt, b)
		if err != nil {
			if errors.Is(err, sparse.ErrSingular) {
				return nil, fmt.Errorf("%w: singular KKT system (redundant constraints?)", ErrUnobservable)
			}
			return nil, fmt.Errorf("wls: KKT solve at iteration %d: %w", iter, err)
		}
		sparse.Axpy(1, sol[:n], x)
		out.Lambda = sol[n:]
		out.Iterations = iter + 1
		if sparse.NormInf(sol[:n]) < tol {
			out.Converged = true
			break
		}
	}

	jplan.EvalInto(h, x)
	sparse.Sub(r, z, h)
	out.X = x
	out.State = mod.VecToState(x)
	out.Residuals = r
	for i := range r {
		out.ObjectiveJ += w[i] * r[i] * r[i]
	}
	cplan.EvalInto(cval, x)
	for _, cv := range cval {
		if a := math.Abs(cv); a > out.MaxConstraintViolation {
			out.MaxConstraintViolation = a
		}
	}
	if !out.Converged {
		return out, fmt.Errorf("%w after %d iterations", ErrNotConverged, out.Iterations)
	}
	return out, nil
}

// ZeroInjectionConstraints scans a network for buses with no load, no
// shunt and no in-service generation, returning P and Q zero-injection
// constraints for each — the structural facts an EMS database provides.
func ZeroInjectionConstraints(mod *meas.Model) []Constraint {
	var out []Constraint
	for i, b := range mod.Net.Buses {
		if b.Pd != 0 || b.Qd != 0 || b.Gs != 0 || b.Bs != 0 {
			continue
		}
		if len(mod.Net.GenAt(i)) > 0 {
			continue
		}
		out = append(out,
			Constraint{Kind: meas.Pinj, Bus: b.ID},
			Constraint{Kind: meas.Qinj, Bus: b.ID})
	}
	return out
}
