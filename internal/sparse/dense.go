package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix used for the constrained estimator's
// nc×nc Schur complement and reference solves in tests.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// AddAt adds v to element (i, j).
func (m *Dense) AddAt(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// ErrSingular reports a (numerically) singular matrix in LU factorization.
var ErrSingular = errors.New("sparse: singular matrix")

// LU holds an in-place LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	n    int
	lu   []float64
	perm []int
}

// Factor computes the LU factorization of the square matrix a with partial
// pivoting. a is not modified.
func Factor(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: LU requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := append([]float64(nil), a.Data...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in column col at/below the diagonal.
		pivRow, pivVal := col, math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > pivVal {
				pivRow, pivVal = r, v
			}
		}
		if pivVal == 0 || math.IsNaN(pivVal) {
			return nil, ErrSingular
		}
		if pivRow != col {
			for j := 0; j < n; j++ {
				lu[col*n+j], lu[pivRow*n+j] = lu[pivRow*n+j], lu[col*n+j]
			}
			perm[col], perm[pivRow] = perm[pivRow], perm[col]
		}
		piv := lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] / piv
			lu[r*n+col] = f
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu[r*n+j] -= f * lu[col*n+j]
			}
		}
	}
	return &LU{n: n, lu: lu, perm: perm}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.n
	if len(b) != n {
		return nil, fmt.Errorf("sparse: LU solve rhs length %d != %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, lij := range row {
			s -= lij * x[j]
		}
		x[i] = s
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x, nil
}

// SolveDense is a convenience wrapper: factor a and solve for b.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// ToDense expands a CSR matrix into dense form (for tests and small systems).
func (a *CSR) ToDense() *Dense {
	d := NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.AddAt(i, a.ColIdx[k], a.Val[k])
		}
	}
	return d
}
