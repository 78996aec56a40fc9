// Package sparse provides the sparse and dense linear-algebra kernels used
// by the state-estimation stack: COO/CSR matrices, parallel matrix-vector
// products, weighted normal-equation (gain matrix) assembly, a complete
// sparse LDLᵀ factor and a preconditioned conjugate-gradient solver for
// symmetric positive-definite systems, and a small dense LU solver.
//
// Matrices are real, double precision. Row/column indices are 0-based.
package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format (triplet) sparse matrix builder. Duplicate
// entries are allowed and are summed when the matrix is compiled to CSR.
// The zero value is an empty 0x0 matrix; use NewCOO to fix dimensions.
type COO struct {
	Rows, Cols int
	rowIdx     []int
	colIdx     []int
	val        []float64
}

// NewCOO returns an empty COO builder with the given dimensions.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add appends the entry (i, j, v). Entries with v == 0 are kept: explicit
// zeros can matter for preserving sparsity patterns across refactorization.
func (m *COO) Add(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.rowIdx = append(m.rowIdx, i)
	m.colIdx = append(m.colIdx, j)
	m.val = append(m.val, v)
}

// NNZ returns the number of stored (pre-deduplication) entries.
func (m *COO) NNZ() int { return len(m.val) }

// ToCSR compiles the triplets into CSR form, summing duplicates.
func (m *COO) ToCSR() *CSR {
	n := len(m.val)
	// Count entries per row.
	rowPtr := make([]int, m.Rows+1)
	for _, r := range m.rowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, n)
	val := make([]float64, n)
	next := make([]int, m.Rows)
	copy(next, rowPtr[:m.Rows])
	for k := 0; k < n; k++ {
		r := m.rowIdx[k]
		p := next[r]
		colIdx[p] = m.colIdx[k]
		val[p] = m.val[k]
		next[r]++
	}
	csr := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	csr.sortRowsAndDedup()
	return csr
}

// CSR is a compressed-sparse-row matrix. Within each row, column indices are
// strictly increasing and unique after construction via COO.ToCSR.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColIdx     []int // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries: the pattern's, so a CSR
// without values, such as a gain pattern before its plan, counts them too.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// Dims returns the matrix dimensions.
func (a *CSR) Dims() (rows, cols int) { return a.Rows, a.Cols }

// sortRowsAndDedup sorts column indices within each row and merges duplicate
// columns by summing their values, compacting storage in place.
func (a *CSR) sortRowsAndDedup() {
	out := 0
	newPtr := make([]int, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		row := rowView{cols: a.ColIdx[lo:hi], vals: a.Val[lo:hi]}
		sort.Sort(row)
		// Merge duplicates into the compacted prefix.
		start := out
		for k := lo; k < hi; k++ {
			if out > start && a.ColIdx[k] == a.ColIdx[out-1] {
				a.Val[out-1] += a.Val[k]
				continue
			}
			a.ColIdx[out] = a.ColIdx[k]
			a.Val[out] = a.Val[k]
			out++
		}
		newPtr[i+1] = out
	}
	a.ColIdx = a.ColIdx[:out]
	a.Val = a.Val[:out]
	a.RowPtr = newPtr
}

type rowView struct {
	cols []int
	vals []float64
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// At returns the value at (i, j), zero if the entry is not stored.
// It binary-searches the row and therefore costs O(log nnz(row)).
func (a *CSR) At(i, j int) float64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	cols := a.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return a.Val[lo+k]
	}
	return 0
}

// DiagonalInto writes the main diagonal into d (length min(Rows, Cols)),
// walking each row directly instead of binary-searching per index. Missing
// diagonal entries are written as 0. It allocates nothing, so numeric
// refreshes (the Jacobi preconditioner) can call it per iteration.
func (a *CSR) DiagonalInto(d []float64) {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	if len(d) != n {
		panic(fmt.Sprintf("sparse: DiagonalInto length %d != %d", len(d), n))
	}
	for i := 0; i < n; i++ {
		d[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			if c > i {
				break // columns are sorted; the diagonal is not stored
			}
			if c == i {
				d[i] = a.Val[k]
				break
			}
		}
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	nnz := a.NNZ()
	rowPtr := make([]int, a.Cols+1)
	for _, c := range a.ColIdx {
		rowPtr[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, a.Cols)
	copy(next, rowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			colIdx[p] = i
			val[p] = a.Val[k]
			next[c]++
		}
	}
	// Rows of the transpose are built in increasing original-row order, so
	// column indices are already sorted and unique.
	return &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// SharePattern returns a matrix on a's sparsity pattern — the same RowPtr
// and ColIdx arrays, not copies — with values of its own, all zero. Neither
// matrix may edit the index arrays afterwards.
func (a *CSR) SharePattern() *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]float64, len(a.Val))}
}

// Scale multiplies every stored entry by s, in place.
func (a *CSR) Scale(s float64) {
	for k := range a.Val {
		a.Val[k] *= s
	}
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// String renders small matrices densely for debugging; large matrices are
// summarized by shape and nnz.
func (a *CSR) String() string {
	if a.Rows > 12 || a.Cols > 12 {
		return fmt.Sprintf("CSR{%dx%d, nnz=%d}", a.Rows, a.Cols, a.NNZ())
	}
	s := ""
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			s += fmt.Sprintf("%8.3f ", a.At(i, j))
		}
		s += "\n"
	}
	return s
}
