package sparse

import (
	"fmt"
	"sort"
)

// ParallelNNZThreshold is the matrix size (stored entries) below which the
// parallel mat-vec paths fall back to the serial kernel: under it, the
// fan-out/joins cost more than the multiply itself. The threshold is
// nnz-based rather than row-based because per-row work varies wildly
// between a near-diagonal gain matrix and a dense-ish one. It is exported
// only because benchmark/replay.go still reads it.
const ParallelNNZThreshold = 16384

// parallelNNZThreshold is the internal alias predating the export.
const parallelNNZThreshold = ParallelNNZThreshold

// MulVec computes y = A·x. y must have length A.Rows and x length A.Cols.
func (a *CSR) MulVec(y, x []float64) {
	a.checkMulDims(y, x)
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// mulVecRows is the row-range kernel of the pooled mat-vec.
func (a *CSR) mulVecRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// partitionRows fills bounds (length parts+1) with the nnz-balanced row
// partition — the cached form of rowBoundary used by CG, which would
// otherwise repeat the boundary searches on every PCG iteration.
func (a *CSR) partitionRows(bounds []int, parts int) {
	for w := 0; w <= parts; w++ {
		bounds[w] = a.rowBoundary(w, parts)
	}
}

// mulVecRanges runs the pooled mat-vec over precomputed partition bounds.
func (a *CSR) mulVecRanges(y, x []float64, p *Pool, bounds []int) {
	p.Run(len(bounds)-1, func(w int) {
		a.mulVecRows(y, x, bounds[w], bounds[w+1])
	})
}

// rowBoundary returns the first row of partition w when the matrix rows are
// split into parts contiguous blocks of roughly equal nnz. It is a pure
// function of (w, parts) so concurrent workers compute consistent, disjoint
// [boundary(w), boundary(w+1)) ranges without shared state.
func (a *CSR) rowBoundary(w, parts int) int {
	if w <= 0 {
		return 0
	}
	if w >= parts {
		return a.Rows
	}
	target := a.NNZ() * w / parts
	b := sort.SearchInts(a.RowPtr, target)
	if b > a.Rows {
		b = a.Rows
	}
	return b
}

// MulTransVec computes y = Aᵀ·x. y must have length A.Cols and x length A.Rows.
func (a *CSR) MulTransVec(y, x []float64) {
	if len(y) != a.Cols || len(x) != a.Rows {
		panic(fmt.Sprintf("sparse: MulTransVec dims y=%d x=%d for %dx%d", len(y), len(x), a.Rows, a.Cols))
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			y[a.ColIdx[k]] += a.Val[k] * xi
		}
	}
}

// MulTransVecPool computes y = Aᵀ·x on the persistent pool. The transpose
// product scatters into y, so rows cannot simply be split the way the
// forward mat-vec splits them: each worker accumulates its row range into
// a private slice of scratch (length ≥ parts·A.Cols, caller-owned so
// steady-state calls allocate nothing), and a second pooled pass reduces
// the partials column-range-parallel in fixed worker order — the result is
// deterministic for a given parts count. Falls back to the serial kernel
// for small matrices, a nil/single-worker pool, or short scratch.
func (a *CSR) MulTransVecPool(y, x []float64, p *Pool, scratch []float64) {
	if len(y) != a.Cols || len(x) != a.Rows {
		panic(fmt.Sprintf("sparse: MulTransVecPool dims y=%d x=%d for %dx%d", len(y), len(x), a.Rows, a.Cols))
	}
	parts := p.Workers()
	if parts > a.Rows {
		parts = a.Rows
	}
	if parts <= 1 || a.NNZ() < parallelNNZThreshold || len(scratch) < parts*a.Cols {
		a.MulTransVec(y, x)
		return
	}
	cols := a.Cols
	p.Run(parts, func(w int) {
		buf := scratch[w*cols : (w+1)*cols]
		for i := range buf {
			buf[i] = 0
		}
		lo, hi := a.rowBoundary(w, parts), a.rowBoundary(w+1, parts)
		for i := lo; i < hi; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				buf[a.ColIdx[k]] += a.Val[k] * xi
			}
		}
	})
	p.Run(parts, func(w int) {
		clo, chi := cols*w/parts, cols*(w+1)/parts
		for j := clo; j < chi; j++ {
			sum := scratch[j]
			for part := 1; part < parts; part++ {
				sum += scratch[part*cols+j]
			}
			y[j] = sum
		}
	})
}

func (a *CSR) checkMulDims(y, x []float64) {
	if len(y) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVec dims y=%d x=%d for %dx%d", len(y), len(x), a.Rows, a.Cols))
	}
}

// Gain computes the weighted normal-equation ("gain") matrix G = Hᵀ·diag(w)·H.
// w must have length H.Rows; the result is an H.Cols × H.Cols symmetric
// positive-semidefinite CSR matrix (positive-definite when H has full column
// rank and w > 0). The estimator assembles G through a GainPlan; this COO
// assembly is the reference the plan and the dense test oracles build from.
func Gain(h *CSR, w []float64) *CSR {
	if len(w) != h.Rows {
		panic(fmt.Sprintf("sparse: Gain weight length %d != rows %d", len(w), h.Rows))
	}
	n := h.Cols
	coo := NewCOO(n, n)
	// G(i,j) = Σ_m w[m]·H(m,i)·H(m,j). Iterate measurements (rows of H) and
	// emit the outer product of each sparse row with itself.
	for m := 0; m < h.Rows; m++ {
		wm := w[m]
		lo, hi := h.RowPtr[m], h.RowPtr[m+1]
		for p := lo; p < hi; p++ {
			ci, vi := h.ColIdx[p], h.Val[p]
			for q := lo; q < hi; q++ {
				coo.Add(ci, h.ColIdx[q], wm*vi*h.Val[q])
			}
		}
	}
	return coo.ToCSR()
}

// GainRHS computes g = Hᵀ·diag(w)·r, the right-hand side of the WLS normal
// equations, into a freshly allocated vector of length H.Cols.
func GainRHS(h *CSR, w, r []float64) []float64 {
	g := make([]float64, h.Cols)
	wr := make([]float64, h.Rows)
	GainRHSInto(g, h, w, r, wr)
	return g
}

// GainRHSInto computes dst = Hᵀ·diag(w)·r without allocating: dst has
// length H.Cols and wr is a caller-owned scratch vector of length H.Rows.
// It is the per-iteration form used by the solver engine.
func GainRHSInto(dst []float64, h *CSR, w, r, wr []float64) {
	if len(w) != h.Rows || len(r) != h.Rows || len(wr) != h.Rows {
		panic("sparse: GainRHSInto dimension mismatch")
	}
	for i := range wr {
		wr[i] = w[i] * r[i]
	}
	h.MulTransVec(dst, wr)
}

// GainRHSPool is GainRHSInto with the transpose mat-vec on the pool:
// scratch is the caller-owned partial-accumulator buffer of
// MulTransVecPool (length ≥ p.Workers()·H.Cols to engage the pooled path;
// shorter scratch degrades to the serial kernel, preserving results).
func GainRHSPool(dst []float64, h *CSR, w, r, wr []float64, p *Pool, scratch []float64) {
	if len(w) != h.Rows || len(r) != h.Rows || len(wr) != h.Rows {
		panic("sparse: GainRHSPool dimension mismatch")
	}
	for i := range wr {
		wr[i] = w[i] * r[i]
	}
	h.MulTransVecPool(dst, wr, p, scratch)
}
