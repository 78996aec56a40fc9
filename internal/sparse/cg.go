package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Operator is the square sparse matrix interface the CG solver iterates
// against: the scalar CSR layout and the 2×2-blocked BSR layout both
// implement it. The unexported methods keep the set closed — they let CG
// cache an nnz-balanced row partition in its workspace and run the pooled
// mat-vec without per-iteration boundary searches.
type Operator interface {
	Dims() (rows, cols int)
	NNZ() int
	MulVec(y, x []float64)
	partitionRows(bounds []int, parts int)
	mulVecRanges(y, x []float64, p *Pool, bounds []int)
}

// CGOptions controls the preconditioned conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖b−A·x‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Zero selects 4·n (a generous
	// bound; exact CG converges in at most n steps in exact arithmetic).
	MaxIter int
	// Precond is the preconditioner; nil selects identity.
	Precond Preconditioner
	// Pool, when non-nil, runs the mat-vec on the persistent worker pool;
	// nil runs it serially.
	Pool *Pool
	// X0 is an optional initial guess (length n). Nil means the zero
	// vector. The guess is kept only when its residual norm beats the zero
	// vector's by at least 10× (see warmStartGate); marginal guesses are
	// discarded, so warm starting either clearly helps convergence or
	// leaves the solve exactly as if cold-started.
	X0 []float64
	// Work, when non-nil, supplies the iteration vectors so repeated
	// solves on same-dimension systems allocate nothing. The returned
	// CGResult.X aliases Work.X and is overwritten by the next solve.
	Work *CGWorkspace
	// Perm, when non-nil, declares that a (and the preconditioner) live in
	// fill-reducing permuted space: a = P·A·Pᵀ with perm[new] = old (the
	// GainPlan ordering convention). b, X0, and the returned X stay in
	// original space — CG permutes b and the warm start inward and the
	// solution outward using workspace-backed buffers, so repeated permuted
	// solves still allocate nothing. Entries may be −1 to mark padding
	// variables a blocked operator appends (see BSR): a padding position
	// gathers 0 from b and is skipped on the outward scatter, so len(Perm)
	// tracks the operator dimension while b and X0 keep the original
	// (unpadded) length. The estimator solves in natural order; the field
	// stays only because benchmark/replay.go still sets it.
	Perm []int
}

// CGWorkspace holds the five iteration vectors of a CG solve (x, r, z, p,
// A·p) for reuse across solves, plus two boundary buffers (permuted b and
// x) that are grown only when a solve runs in permuted space. The zero
// value is usable; buffers grow on demand and are retained.
type CGWorkspace struct {
	X, r, z, p, ap []float64
	bp, xp         []float64 // permuted-space b and iterate (CGOptions.Perm)

	// Cached nnz-balanced partition for the pooled mat-vec: computing the
	// row boundaries costs two binary searches per worker, which the PCG
	// loop would otherwise repeat every iteration. The cache is keyed on
	// the operator identity and part count; a refresh that rewrites values
	// in place keeps the pattern, so the bounds stay valid across solves.
	mvBounds []int
	mvOp     Operator
	mvParts  int
}

// partition returns the cached nnz-balanced row partition of a into parts
// contiguous ranges, recomputing it only when the operator or part count
// changed since the last solve.
func (w *CGWorkspace) partition(a Operator, parts int) []int {
	if w.mvOp == a && w.mvParts == parts && len(w.mvBounds) == parts+1 {
		return w.mvBounds
	}
	if cap(w.mvBounds) < parts+1 {
		w.mvBounds = make([]int, parts+1)
	}
	w.mvBounds = w.mvBounds[:parts+1]
	a.partitionRows(w.mvBounds, parts)
	w.mvOp = a
	w.mvParts = parts
	return w.mvBounds
}

// NewCGWorkspace returns a workspace pre-sized for n-dimensional systems.
func NewCGWorkspace(n int) *CGWorkspace {
	w := &CGWorkspace{}
	w.resize(n)
	return w
}

func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

func (w *CGWorkspace) resize(n int) {
	w.X = grow(w.X, n)
	w.r = grow(w.r, n)
	w.z = grow(w.z, n)
	w.p = grow(w.p, n)
	w.ap = grow(w.ap, n)
}

// resizePerm sizes the permuted-boundary buffers, kept out of resize so
// natural-ordering solves never pay for them.
func (w *CGWorkspace) resizePerm(n int) {
	w.bp = grow(w.bp, n)
	w.xp = grow(w.xp, n)
}

// CGResult reports how a CG solve went.
type CGResult struct {
	X          []float64 // solution
	Iterations int       // iterations performed
	Residual   float64   // final relative residual
	Converged  bool
}

// ErrCGDiverged reports that CG hit its iteration cap before reaching the
// requested tolerance.
var ErrCGDiverged = errors.New("sparse: conjugate gradient did not converge")

// ErrCGBreakdown reports that CG met a non-finite number — in ‖b‖, in the
// curvature p·A·p or in ‖r‖² — and stopped at the iteration it appeared. It
// points at a NaN or Inf in the matrix or the right-hand side, which is
// neither slow convergence (ErrCGDiverged) nor a curvature ≤ 0 (ErrNotSPD).
var ErrCGBreakdown = errors.New("sparse: conjugate gradient broke down on a non-finite value")

// warmStartGate is the acceptance threshold for CGOptions.X0: the guess is
// kept only when its squared residual is at most this fraction of the zero
// start's (a 10× smaller residual norm). A marginally better guess saves
// under one CG iteration but still perturbs the iterates, which would let
// iteration counts jitter upward across a Gauss–Newton sequence; gating on
// a decade of improvement keeps warm starting strictly non-degrading.
const warmStartGate = 0.01

// CG solves A·x = b for symmetric positive-definite A using the
// preconditioned conjugate-gradient method. A may be a scalar *CSR or a
// blocked *BSR operator. The returned CGResult is valid even on
// ErrCGDiverged (it holds the best iterate reached). A non-finite ‖b‖ fails
// before the first iteration and a NaN curvature or residual norm at the
// iteration it appears, both with ErrCGBreakdown; a finite curvature ≤ 0 is
// ErrNotSPD.
func CG(a Operator, b []float64, opts CGOptions) (CGResult, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return CGResult{}, fmt.Errorf("sparse: CG requires square matrix, got %dx%d", rows, cols)
	}
	n := rows
	if opts.Perm == nil && len(b) != n {
		return CGResult{}, fmt.Errorf("sparse: CG rhs length %d != %d", len(b), n)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 4 * n
		if maxIter < 64 {
			maxIter = 64
		}
	}
	var pre Preconditioner = IdentityPreconditioner{}
	if opts.Precond != nil {
		pre = opts.Precond
	}
	work := opts.Work
	if work == nil {
		work = &CGWorkspace{}
	}
	work.resize(n)
	mulVec := a.MulVec
	if parts := min(opts.Pool.Workers(), n); parts > 1 && a.NNZ() >= parallelNNZThreshold {
		pool, bounds := opts.Pool, work.partition(a, parts)
		mulVec = func(y, x []float64) { a.mulVecRanges(y, x, pool, bounds) }
	}

	// With a fill-reducing permutation, the iteration runs entirely in
	// permuted space (a and the preconditioner already live there): b is
	// gathered into the permuted buffer up front, the iterate lives in
	// work.xp, and finishX scatters the solution back to original order in
	// work.X. ‖P·b‖₂ = ‖b‖₂ (padding gathers zeros), so tolerances are
	// unaffected.
	perm := opts.Perm
	orig := b // caller-space rhs; b itself is rebound when permuting
	x := work.X
	if perm != nil {
		if len(perm) != n {
			return CGResult{}, fmt.Errorf("sparse: CG perm length %d != %d", len(perm), n)
		}
		for _, o := range perm {
			if o >= len(b) {
				return CGResult{}, fmt.Errorf("sparse: CG perm entry %d out of range for rhs length %d", o, len(b))
			}
		}
		work.resizePerm(n)
		for i, o := range perm {
			if o >= 0 {
				work.bp[i] = b[o]
			} else {
				work.bp[i] = 0
			}
		}
		b = work.bp
		x = work.xp
	}
	finishX := func() []float64 {
		if perm == nil {
			return x
		}
		for i, o := range perm {
			if o >= 0 {
				work.X[o] = x[i]
			}
		}
		return work.X
	}

	r := work.r
	for i := range x {
		x[i] = 0
	}
	copy(r, b)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return CGResult{X: finishX(), Converged: true}, nil
	}
	if math.IsNaN(bnorm) || math.IsInf(bnorm, 0) {
		return CGResult{X: finishX(), Residual: math.NaN()}, ErrCGBreakdown
	}
	// rr tracks ‖r‖² across iterations so the solver never spends a
	// separate pass per iteration on the residual norm: it is recomputed
	// inside the r-update (axpy) loop below.
	rr := Dot(r, r)
	if opts.X0 != nil {
		if len(opts.X0) != len(orig) {
			return CGResult{}, fmt.Errorf("sparse: CG x0 length %d != %d", len(opts.X0), len(orig))
		}
		if perm != nil {
			for i, o := range perm {
				if o >= 0 {
					x[i] = opts.X0[o]
				} else {
					x[i] = 0
				}
			}
		} else {
			copy(x, opts.X0)
		}
		ax := work.ap // free until the first iteration's mat-vec
		mulVec(ax, x)
		warmRR := 0.0
		for i := range r {
			r[i] = b[i] - ax[i]
			warmRR += r[i] * r[i]
		}
		if warmRR <= warmStartGate*rr {
			rr = warmRR
		} else {
			// The guess is not clearly better than the zero vector — fall
			// back so warm starting can only ever save iterations, never
			// perturb a solve it cannot improve.
			for i := range x {
				x[i] = 0
			}
			copy(r, b)
		}
	}

	z, p, ap := work.z, work.p, work.ap
	pre.Apply(z, r)
	copy(p, z)
	rz := Dot(r, z)

	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		res.Residual = math.Sqrt(rr) / bnorm
		res.Iterations = k
		if res.Residual <= tol {
			res.Converged = true
			res.X = finishX()
			return res, nil
		}
		if math.IsNaN(rr) {
			res.X = finishX()
			return res, ErrCGBreakdown
		}
		mulVec(ap, p)
		pap := Dot(p, ap)
		if !(pap > 0) {
			res.X = finishX()
			if math.IsNaN(pap) {
				return res, ErrCGBreakdown
			}
			return res, ErrNotSPD
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		rr = 0
		for i := range r {
			r[i] -= alpha * ap[i]
			rr += r[i] * r[i]
		}
		pre.Apply(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Iterations = maxIter
	res.Residual = math.Sqrt(rr) / bnorm
	res.Converged = res.Residual <= tol
	res.X = finishX()
	if !res.Converged {
		return res, ErrCGDiverged
	}
	return res, nil
}
