package sparse

import (
	"fmt"
	"math"
	"slices"
)

// LDLFactor is a complete sparse factorization P·A·Pᵀ = L·D·Lᵀ of a
// symmetric positive-definite matrix (L unit lower triangular, D diagonal).
// Apply is a direct solve, and how the estimator solves its gain system; the
// factor is also a Preconditioner, so CG can polish a substitution that
// misses its tolerance, or iterate on an operator the factor lags.
//
// The work splits the way the gain plans split theirs. AnalyzeLDL is the
// symbolic half, paid once per sparsity pattern: the factor's own
// fill-reducing permutation (MinDegree), the permuted upper triangle with a
// gather map into the source matrix's value array, the elimination tree and
// the pattern of L. Refresh is the numeric half: an up-looking
// factorization (Davis, "Algorithm 849: a concise sparse Cholesky
// factorization package") that rewrites L and D in place and allocates
// nothing but the error of a breakdown. The permutation lives inside the
// factor — Apply takes and returns vectors in the matrix's own order — so
// the matrix, the CG iteration and every other consumer of it stay in
// natural order.
//
// A factor is not safe for concurrent use: Refresh and Apply share scratch.
type LDLFactor struct {
	// The analysis: everything down to lRow depends on the pattern alone, is
	// never written after AnalyzeLDL, and is shared by SharePattern.
	n    int
	perm []int // fill-reducing order, perm[new] = old

	// Pattern of the analyzed matrix (its own arrays, not copies); Refresh
	// rejects any other.
	rowPtr, colIdx []int

	// Strict upper triangle of P·A·Pᵀ by column: column k holds rows
	// upRow[p] < k whose values are a.Val[upSrc[p]]; the diagonal of column
	// k is a.Val[diagSrc[k]]. Rows and sources are int32, as lRow is.
	upPtr, diagSrc []int
	upRow, upSrc   []int32

	parent []int   // elimination tree (−1 at roots)
	lPtr   []int   // column pointers of L's strict lower triangle
	lRow   []int32 // row indices, ascending within a column

	lVal []float64 // L values
	d    []float64 // D

	// Refresh scratch: y accumulates one sparse row of L and is all zero
	// between rows, also after a breakdown.
	y                  []float64
	pattern, flag, lnz []int
	w                  []float64 // Apply's permuted vector
}

// PivotError is the ErrNotSPD an LDLᵀ refresh returns, naming where the
// elimination broke down: State is the row of the matrix, in its own
// order, whose pivot Pivot fell to ldlPivotRelFloor·|Diag| or below (or is
// NaN), Diag being that row's diagonal entry. errors.Is(err, ErrNotSPD)
// holds for it.
type PivotError struct {
	State       int
	Pivot, Diag float64
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("%v: pivot %g at state %d, diagonal %g", ErrNotSPD, e.Pivot, e.State, e.Diag)
}

func (e *PivotError) Unwrap() error { return ErrNotSPD }

// ldlPivotRelFloor is the smallest fraction of the matrix diagonal a pivot
// may retain after the update subtractions, as ic0PivotRelFloor: below it
// the pivot is cancellation noise and the matrix is numerically singular.
const ldlPivotRelFloor = ic0PivotRelFloor

// AnalyzeLDL runs the symbolic analysis of the symmetric matrix a and
// returns a factor with no numeric content: Refresh must succeed before the
// first Apply. a must be structurally symmetric and store no entry twice;
// its rows need not be sorted. Values are only ever read from its lower
// triangle. The factor keeps a's index arrays, which must not be edited
// afterwards. It fails when a is not square or a diagonal entry is not stored.
func AnalyzeLDL(a *CSR) (*LDLFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: LDL requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if nnz := len(a.ColIdx); max(a.Rows, nnz) > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: LDL of dimension %d with %d entries exceeds the factor's int32 indices", a.Rows, nnz)
	}
	n := a.Rows
	f := &LDLFactor{
		n:       n,
		perm:    MinDegree(a),
		rowPtr:  a.RowPtr,
		colIdx:  a.ColIdx,
		upPtr:   make([]int, n+1),
		diagSrc: make([]int, n),
		parent:  make([]int, n),
		lPtr:    make([]int, n+1),
		d:       make([]float64, n),
		y:       make([]float64, n),
		pattern: make([]int, n),
		flag:    make([]int, n),
		lnz:     make([]int, n),
		w:       make([]float64, n),
	}
	inv := InversePerm(f.perm)

	// Entry (i, j), j < i, of a lands in column max(inv i, inv j) of the
	// permuted upper triangle.
	for i := range f.diagSrc {
		f.diagSrc[i] = -1
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColIdx[k]; {
			case j == i:
				f.diagSrc[inv[i]] = k
			case j < i:
				f.upPtr[max(inv[i], inv[j])+1]++
			}
		}
		if f.diagSrc[inv[i]] < 0 {
			return nil, fmt.Errorf("sparse: LDL: missing diagonal at row %d", i)
		}
	}
	for k := 0; k < n; k++ {
		f.upPtr[k+1] += f.upPtr[k]
	}
	f.upRow = make([]int32, f.upPtr[n])
	f.upSrc = make([]int32, f.upPtr[n])
	next := f.lnz // free until the column counts below
	copy(next, f.upPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] >= i {
				continue // the same entries the count above took: rows need not be sorted
			}
			pi, pj := inv[i], inv[a.ColIdx[k]]
			p := next[max(pi, pj)]
			next[max(pi, pj)]++
			f.upRow[p], f.upSrc[p] = int32(min(pi, pj)), int32(k)
		}
	}

	// Elimination tree and column counts: row k of L is the union of the
	// tree paths from each upper-triangle entry of column k towards k.
	for k := 0; k < n; k++ {
		f.parent[k] = -1
		f.flag[k] = k
		f.lnz[k] = 0
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			for i := int(f.upRow[p]); f.flag[i] != k; i = f.parent[i] {
				if f.parent[i] < 0 {
					f.parent[i] = k
				}
				f.lnz[i]++
				f.flag[i] = k
			}
		}
	}
	for k := 0; k < n; k++ {
		f.lPtr[k+1] = f.lPtr[k] + f.lnz[k]
	}
	f.lRow = make([]int32, f.lPtr[n])
	f.lVal = make([]float64, f.lPtr[n])

	// The same walk again, now with a place for every entry: row k lands in
	// each column of its pattern, so a column lists its rows ascending.
	for k := 0; k < n; k++ {
		f.flag[k] = -1
		f.lnz[k] = 0
	}
	for k := 0; k < n; k++ {
		f.flag[k] = k
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			for i := int(f.upRow[p]); f.flag[i] != k; i = f.parent[i] {
				f.lRow[f.lPtr[i]+f.lnz[i]] = int32(k)
				f.lnz[i]++
				f.flag[i] = k
			}
		}
	}
	return f, nil
}

// SharePattern returns a factor for another matrix of the analyzed pattern
// that shares the whole analysis with f — the ordering, the permuted upper
// triangle, the elimination tree and L's pattern — and owns only L's values,
// D and its scratch. It has no numeric content until its Refresh succeeds;
// the two factors refresh and apply independently, also concurrently.
func (f *LDLFactor) SharePattern() *LDLFactor {
	c := *f
	n := f.n
	c.lVal = make([]float64, len(f.lVal))
	c.d, c.y, c.w = make([]float64, n), make([]float64, n), make([]float64, n)
	c.pattern, c.flag, c.lnz = make([]int, n), make([]int, n), make([]int, n)
	return &c
}

// sameInts is slices.Equal behind the one-array case, which needs no pass.
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// NewLDL analyzes and factors a.
func NewLDL(a *CSR) (*LDLFactor, error) {
	f, err := AnalyzeLDL(a)
	if err != nil {
		return nil, err
	}
	if err := f.Refresh(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refresh refactors in place from a matrix with the analyzed pattern: the
// analyzed matrix itself or one sharing its index arrays, which is every
// call the estimator makes, or else one whose arrays compare equal. A
// non-positive, NaN or cancellation-level pivot returns a *PivotError, which
// is ErrNotSPD; the factor then holds no usable numerics, but its analysis
// and scratch are intact and a later Refresh may succeed.
func (f *LDLFactor) Refresh(a *CSR) error {
	if a.Rows != f.n || a.Cols != f.n {
		return fmt.Errorf("sparse: LDL refresh with %dx%d matrix, built for %d", a.Rows, a.Cols, f.n)
	}
	if !sameInts(a.RowPtr, f.rowPtr) || !sameInts(a.ColIdx, f.colIdx) {
		return fmt.Errorf("sparse: LDL refresh with changed sparsity pattern")
	}
	n, y, pattern, flag, lnz := f.n, f.y, f.pattern, f.flag, f.lnz
	lPtr, lRow, lVal, d := f.lPtr, f.lRow, f.lVal, f.d
	for k := 0; k < n; k++ {
		// Scatter column k of the upper triangle into y and collect the
		// pattern of row k of L in topological order at pattern[top:].
		top := n
		flag[k] = k
		lnz[k] = 0
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			i := int(f.upRow[p])
			y[i] += a.Val[f.upSrc[p]]
			depth := 0
			for ; flag[i] != k; i = f.parent[i] {
				pattern[depth] = i
				depth++
				flag[i] = k
			}
			for depth > 0 {
				top--
				depth--
				pattern[top] = pattern[depth]
			}
		}
		// Sparse triangular solve for row k of L, and the pivot.
		akk := a.Val[f.diagSrc[k]]
		dk := akk
		for ; top < n; top++ {
			i := pattern[top]
			yi := y[i]
			y[i] = 0
			lo, end := lPtr[i], lPtr[i]+lnz[i]
			rows := lRow[lo:end]
			vals := lVal[lo:end][:len(rows)]
			for p, r := range rows {
				y[r] -= vals[p] * yi
			}
			lki := yi / d[i]
			dk -= lki * yi
			lVal[end] = lki
			lnz[i]++
		}
		// The negated comparison catches NaN as well.
		if !(dk > ldlPivotRelFloor*math.Abs(akk)) {
			return &PivotError{State: f.perm[k], Pivot: dk, Diag: akk}
		}
		d[k] = dk
	}
	return nil
}

// Apply solves A·z = r by permuted forward, diagonal and backward
// substitution, which also makes the factor a Preconditioner. It allocates
// nothing. The division by D is the first operation the backward sweep
// applies to each entry, which is where a separate pass would have left it.
func (f *LDLFactor) Apply(z, r []float64) {
	n := f.n
	w, d, lPtr := f.w[:n], f.d[:n], f.lPtr[:n+1]
	for k, o := range f.perm {
		w[k] = r[o]
	}
	for j := 0; j < n; j++ {
		lo, hi := lPtr[j], lPtr[j+1]
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		wj := w[j]
		for p, i := range rows {
			w[i] -= vals[p] * wj
		}
	}
	for j := n - 1; j >= 0; j-- {
		lo, hi := lPtr[j], lPtr[j+1]
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		wj := w[j] / d[j]
		for p, i := range rows {
			wj -= vals[p] * w[i]
		}
		w[j] = wj
	}
	for k, o := range f.perm {
		z[o] = w[k]
	}
}

// Name implements Preconditioner.
func (f *LDLFactor) Name() string { return "ldl" }

// FactorNNZ returns the number of off-diagonal entries of L — the fill the
// ordering left, against the strict lower triangle of the analyzed matrix.
func (f *LDLFactor) FactorNNZ() int { return len(f.lVal) }
