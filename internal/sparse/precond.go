// The program runs no preconditioner: Jacobi and IC0 stay only because
// benchmark/replay.go times them, and ErrNotSPD because the LDLᵀ factor's
// PivotError is one.

package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Preconditioner applies z = M⁻¹·r for some approximation M ≈ A that is
// cheap to invert. Implementations must be safe for repeated use but need
// not be safe for concurrent use.
type Preconditioner interface {
	// Apply writes M⁻¹·r into z. z and r have the system dimension and
	// must not alias.
	Apply(z, r []float64)
	// Name identifies the preconditioner in logs and benchmarks.
	Name() string
}

// IdentityPreconditioner is the no-op preconditioner (plain CG).
type IdentityPreconditioner struct{}

// Apply copies r into z.
func (IdentityPreconditioner) Apply(z, r []float64) { copy(z, r) }

// Name implements Preconditioner.
func (IdentityPreconditioner) Name() string { return "none" }

// JacobiPreconditioner scales by the inverse diagonal of A: the
// preconditioner of the paper's parallel PCG gain solve, embarrassingly
// parallel and effective on diagonally dominant gain matrices.
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of a. It
// returns an error if any diagonal entry is zero (one that wraps ErrNotSPD)
// or not finite.
func NewJacobi(a *CSR) (*JacobiPreconditioner, error) {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	p := &JacobiPreconditioner{invDiag: make([]float64, n)}
	if err := p.Refresh(a); err != nil {
		return nil, err
	}
	return p, nil
}

// NewJacobiBSR builds a Jacobi preconditioner from the diagonal of a
// blocked matrix. The padding variable's diagonal is 1, so its residual
// component passes through Apply unchanged. It and RefreshBSR stay only
// because benchmark/replay.go still calls them.
func NewJacobiBSR(a *BSR) (*JacobiPreconditioner, error) {
	p := &JacobiPreconditioner{invDiag: make([]float64, a.Rows)}
	if err := p.RefreshBSR(a); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh recomputes the inverse diagonal in place (no allocation) from a
// matrix with the same dimension.
func (p *JacobiPreconditioner) Refresh(a *CSR) error {
	a.DiagonalInto(p.invDiag)
	return p.invertDiag()
}

// RefreshBSR is Refresh for the blocked gain layout.
func (p *JacobiPreconditioner) RefreshBSR(a *BSR) error {
	if len(p.invDiag) != a.Rows {
		return fmt.Errorf("sparse: jacobi refresh with %d-dim blocked matrix, built for %d", a.Rows, len(p.invDiag))
	}
	a.DiagonalInto(p.invDiag)
	return p.invertDiag()
}

func (p *JacobiPreconditioner) invertDiag() error {
	for i, v := range p.invDiag {
		if v == 0 {
			return fmt.Errorf("sparse: jacobi: zero diagonal entry at %d: %w", i, ErrNotSPD)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sparse: jacobi: unusable diagonal entry %g at %d", v, i)
		}
		p.invDiag[i] = 1 / v
	}
	return nil
}

// Apply implements Preconditioner.
func (p *JacobiPreconditioner) Apply(z, r []float64) {
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}

// Name implements Preconditioner.
func (p *JacobiPreconditioner) Name() string { return "jacobi" }

// IC0Preconditioner is a zero-fill incomplete Cholesky factorization
// A ≈ L·Lᵀ restricted to the sparsity pattern of the lower triangle of A.
// Apply solves L·y = r then Lᵀ·z = y. The estimator no longer offers it; the
// type stays only because benchmark/replay.go still times it.
type IC0Preconditioner struct {
	n      int
	rowPtr []int // CSR of L (strictly sorted columns, diagonal last entry)
	colIdx []int
	val    []float64
	diag   []int // position of the diagonal entry in each row of L
	colPos []int // factorization scratch: column -> entry index in row i
}

// ErrNotSPD reports that a factorization or solve encountered a
// non-positive pivot, i.e. the matrix is not symmetric positive definite
// (or the incomplete factorization broke down).
var ErrNotSPD = errors.New("sparse: matrix is not positive definite (pivot <= 0)")

// NewIC0 computes the IC(0) factorization of the symmetric matrix a.
// Only the lower triangle of a is read. Breakdown (non-positive pivot) is
// repaired by a Manteuffel-style global diagonal shift: the factorization
// restarts on A + α·diag(A) with α escalating by decades until the pivots
// stay positive. The shift degrades the preconditioner smoothly, unlike a
// per-pivot patch whose inconsistent rows can cascade into overflow on
// later pivots (observed under fill-reducing reorderings). Matrices whose
// original diagonal is not strictly positive are unrepairable (ErrNotSPD).
func NewIC0(a *CSR) (*IC0Preconditioner, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: IC0 requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	p := &IC0Preconditioner{n: n}
	p.rowPtr = make([]int, n+1)
	// Extract the lower triangle (including diagonal).
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= i {
				p.colIdx = append(p.colIdx, a.ColIdx[k])
				p.val = append(p.val, a.Val[k])
			}
		}
		p.rowPtr[i+1] = len(p.val)
	}
	p.diag = make([]int, n)
	for i := 0; i < n; i++ {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		if hi == lo || p.colIdx[hi-1] != i {
			return nil, fmt.Errorf("sparse: IC0: missing diagonal at row %d", i)
		}
		p.diag[i] = hi - 1
	}
	p.colPos = make([]int, n)
	for j := range p.colPos {
		p.colPos[j] = -1
	}
	if err := p.factorize(a); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh re-extracts the lower triangle of a into the existing factor
// storage and refactorizes in place. a must have the sparsity pattern the
// preconditioner was built from.
func (p *IC0Preconditioner) Refresh(a *CSR) error {
	if a.Rows != p.n || a.Cols != p.n {
		return fmt.Errorf("sparse: IC0 refresh with %dx%d matrix, built for %d", a.Rows, a.Cols, p.n)
	}
	idx := 0
	for i := 0; i < p.n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= i {
				if idx >= len(p.val) || p.colIdx[idx] != a.ColIdx[k] {
					return fmt.Errorf("sparse: IC0 refresh with changed sparsity pattern at row %d", i)
				}
				p.val[idx] = a.Val[k]
				idx++
			}
		}
	}
	if idx != len(p.val) {
		return fmt.Errorf("sparse: IC0 refresh with changed sparsity pattern (%d != %d entries)", idx, len(p.val))
	}
	return p.factorize(a)
}

// errIC0Breakdown is the internal signal that a factorization attempt hit a
// non-positive pivot on a matrix whose original diagonal is positive — i.e.
// a larger diagonal shift may still succeed.
var errIC0Breakdown = errors.New("sparse: IC0 pivot breakdown")

// ic0PivotRelFloor is the smallest fraction of the (shifted) diagonal a
// pivot may retain after the update subtractions. A pivot below it is pure
// cancellation noise — "positive" only by roundoff — and dividing by its
// square root would blow the factor up by ~1e6, so it is treated as a
// breakdown and repaired by the next shift escalation instead.
const ic0PivotRelFloor = 1e-12

// loadLower re-extracts the lower-triangle values of a into the factor
// storage, undoing a failed in-place factorization attempt. The pattern has
// already been validated against p.colIdx by the caller.
func (p *IC0Preconditioner) loadLower(a *CSR) {
	idx := 0
	for i := 0; i < p.n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= i {
				p.val[idx] = a.Val[k]
				idx++
			}
		}
	}
}

// factorize runs the incomplete factorization, restarting with an
// escalating Manteuffel diagonal shift on pivot breakdown. p.val must hold
// the lower triangle of a on entry.
func (p *IC0Preconditioner) factorize(a *CSR) error {
	const maxShiftTries = 6
	alpha := 0.0
	for try := 0; ; try++ {
		err := p.tryFactorize(alpha)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errIC0Breakdown) || try == maxShiftTries {
			return ErrNotSPD
		}
		if alpha == 0 {
			alpha = 1e-3
		} else {
			alpha *= 10
		}
		p.loadLower(a) // the failed attempt clobbered the values in place
	}
}

// tryFactorize runs one in-place IKJ incomplete factorization pass over
// p.val (which must hold the lower triangle of A) with the diagonal scaled
// by 1+alpha, i.e. it factors A + α·diag(A). On a non-positive pivot it
// resets the colPos scratch and reports errIC0Breakdown when a larger shift
// could repair it (positive original diagonal) or ErrNotSPD when not.
func (p *IC0Preconditioner) tryFactorize(alpha float64) error {
	n := p.n
	// colPos[j] maps column j -> entry index within the current row i.
	colPos := p.colPos
	for i := 0; i < n; i++ {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			colPos[p.colIdx[k]] = k
		}
		for k := lo; k < hi-1; k++ { // for each off-diagonal L(i,j), j<i
			j := p.colIdx[k]
			// L(i,j) = (A(i,j) - Σ_{t<j} L(i,t)·L(j,t)) / L(j,j)
			sum := p.val[k]
			for t := p.rowPtr[j]; t < p.diag[j]; t++ {
				cj := p.colIdx[t]
				if ip := colPos[cj]; ip >= 0 && ip < k {
					sum -= p.val[ip] * p.val[t]
				}
			}
			djj := p.val[p.diag[j]]
			p.val[k] = sum / djj
		}
		// Diagonal: L(i,i) = sqrt((1+α)·A(i,i) - Σ_{t<i} L(i,t)²)
		orig := p.val[hi-1]
		shifted := (1 + alpha) * orig
		sum := shifted
		for k := lo; k < hi-1; k++ {
			sum -= p.val[k] * p.val[k]
		}
		// The negated comparison catches NaN as well as non-positive and
		// cancellation-level pivots.
		if !(sum > ic0PivotRelFloor*math.Abs(shifted)) {
			for k := lo; k < hi; k++ {
				colPos[p.colIdx[k]] = -1 // leave the scratch clean for a retry
			}
			if orig > 0 {
				return errIC0Breakdown
			}
			return ErrNotSPD
		}
		p.val[hi-1] = math.Sqrt(sum)
		for k := lo; k < hi; k++ {
			colPos[p.colIdx[k]] = -1
		}
	}
	return nil
}

// Apply implements Preconditioner: z = (L·Lᵀ)⁻¹·r.
func (p *IC0Preconditioner) Apply(z, r []float64) {
	// Forward solve L·y = r (y stored in z).
	for i := 0; i < p.n; i++ {
		sum := r[i]
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		for k := lo; k < hi-1; k++ {
			sum -= p.val[k] * z[p.colIdx[k]]
		}
		z[i] = sum / p.val[hi-1]
	}
	// Backward solve Lᵀ·z = y, traversing rows in reverse and scattering.
	for i := p.n - 1; i >= 0; i-- {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		z[i] /= p.val[hi-1]
		zi := z[i]
		for k := lo; k < hi-1; k++ {
			z[p.colIdx[k]] -= p.val[k] * zi
		}
	}
}

// Name implements Preconditioner.
func (p *IC0Preconditioner) Name() string { return "ic0" }
