package wls

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/meas"
	"repro/internal/sparse"
)

// Equality-constrained WLS (Hachtel's augmented-matrix family): structural
// zero injections — transit buses with no load or generation — are exact
// network facts, not noisy telemetry. Modeling them as very-high-weight
// virtual measurements (the TestZeroInjectionVirtualMeasurements approach)
// ill-conditions the gain matrix; the constrained estimator instead takes,
// at each Gauss–Newton step of min (z − h(x))ᵀW(z − h(x)) s.t. c(x) = 0,
// the KKT step [HᵀWH Cᵀ; C 0]·[Δx; λ] = [HᵀW·r; −c(x)], C being the
// constraint Jacobian. That matrix is indefinite, so the step is taken
// through its nc×nc Schur complement on an SPD one: the constraints join the
// meters as rows of weight α, the largest meter weight, and the engine's
// factor holds G_α = HᵀWH + αCᵀC ([H; C] of full column rank, the problem's
// own observability condition, makes it SPD) and its right-hand side
// b_α = HᵀW·r − αCᵀc. The first block row plus αCᵀ(CΔx) = −αCᵀc reads
// G_α·Δx + Cᵀλ = b_α, so with y = G_α⁻¹b_α and Z = G_α⁻¹Cᵀ (nc
// substitutions), S = C·Z, S·λ = C·y + c and Δx = y − Z·λ is the KKT step
// and multiplier: α sets only the conditioning.

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
// weighted into the objective. Tol, MaxIter, Workers and X0 apply as in
// Estimate; GainReuse and X0Gate are ignored, since every step refreshes
// the gain and its factor and X0 is always kept. A gain singular at an
// iterate is ErrUnobservable naming the bus, as in Estimate, and a singular
// Schur complement is ErrUnobservable naming redundant constraints.
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
	m, n := mod.NMeas(), mod.NState()
	sigma := 1.0 // of the constraint rows: weight α, the largest meter weight
	if m > 0 {
		sigma = slices.MinFunc(mod.Meas, func(a, b meas.Measurement) int { return cmp.Compare(a.Sigma, b.Sigma) }).Sigma
	}
	ms := append(make([]meas.Measurement, 0, m+nc), mod.Meas...)
	for _, c := range constraints {
		if c.Kind != meas.Pinj && c.Kind != meas.Qinj {
			return nil, fmt.Errorf("%w: kind %v", ErrBadConstraint, c.Kind)
		}
		if _, ok := mod.Net.Index(c.Bus); !ok {
			return nil, fmt.Errorf("%w: bus %d", ErrBadConstraint, c.Bus)
		}
		ms = append(ms, meas.Measurement{Kind: c.Kind, Bus: c.Bus, Sigma: sigma})
	}
	if m+nc < n {
		return nil, fmt.Errorf("%w: %d measurements + %d constraints < %d states", ErrUnobservable, m, nc, n)
	}
	if opts.X0 != nil && len(opts.X0) != n {
		return nil, fmt.Errorf("wls: warm start length %d != state dim %d", len(opts.X0), n)
	}
	aug, err := meas.NewModel(mod.Net, ms, mod.RefBus(), mod.RefAngle())
	if err != nil {
		return nil, err
	}
	e := NewEngine(aug)
	if err := e.untouchedState(); err != nil {
		return nil, err
	}
	block := e.newBlock()
	x := block[:n:n]
	if opts.X0 != nil {
		copy(x, opts.X0)
	} else {
		e.flatInto(x)
	}
	e.loadWeights(nil)
	for i, mt := range mod.Meas {
		e.z[i] = mt.Value
	}
	// cdot is C's row i, H's row m+i, times v.
	h := e.jplan.H
	cdot := func(i int, v []float64) (d float64) {
		for k := h.RowPtr[m+i]; k < h.RowPtr[m+i+1]; k++ {
			d += h.Val[k] * v[h.ColIdx[k]]
		}
		return d
	}

	out := &ConstrainedResult{Result: &Result{}}
	res := out.Result
	zs, s, cy := make([]float64, nc*n), sparse.NewDense(nc, nc), make([]float64, nc)
	for iter := 0; iter < maxIter; iter++ {
		e.evalAt(x, true) // h, r and b_α at x
		e.hValid, e.rhsValid = false, false
		e.refreshGain(e.jplan.Refresh(x), opts)
		y, damped, err := e.solveGain(opts, solveTol, res)
		if err == nil && damped != nil {
			err = e.unobservableAt(damped)
		}
		if err != nil {
			return nil, err
		}
		for j := range nc {
			zj := zs[j*n : (j+1)*n]
			clear(zj)
			for k := h.RowPtr[m+j]; k < h.RowPtr[m+j+1]; k++ {
				zj[h.ColIdx[k]] = h.Val[k]
			}
			e.ldl.Apply(zj, zj)
		}
		for i := range nc {
			cy[i] = e.h[m+i] + cdot(i, y)
			for j := range nc {
				s.Set(i, j, cdot(i, zs[j*n:]))
			}
		}
		lambda, err := sparse.SolveDense(s, cy)
		if err != nil {
			return nil, fmt.Errorf("%w: Schur complement of the KKT system: %w (redundant constraints?)", ErrUnobservable, err)
		}
		for j, l := range lambda {
			sparse.Axpy(-l, zs[j*n:(j+1)*n], y)
		}
		sparse.Axpy(1, y, x)
		out.Lambda = lambda
		res.Iterations = iter + 1
		if res.Converged = sparse.NormInf(y) < tol; res.Converged {
			break
		}
	}

	e.finish(res, block)
	res.Residuals, res.ObjectiveJ = res.Residuals[:m:m], 0
	for i, r := range res.Residuals {
		res.ObjectiveJ += e.w[i] * r * r
	}
	for _, c := range e.h[m:] { // finish left h at x̂
		out.MaxConstraintViolation = max(out.MaxConstraintViolation, math.Abs(c))
	}
	if !res.Converged {
		return out, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
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
