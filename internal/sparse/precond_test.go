package sparse

import (
	"errors"
	"math"
	"testing"
)

// csrFromDense builds a CSR keeping explicit zeros, so breakdown fixtures
// can pin exact sparsity patterns (COO.Add keeps zero entries by design).
func csrFromDense(rows [][]float64) *CSR {
	coo := NewCOO(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

// TestIC0BreakdownRepairShiftsDiagonal exercises the diagonal-shift
// fallback: the matrix is indefinite (the exact Cholesky pivot at row 1 is
// 1-4 = -3) but has a positive diagonal, so factorize must restart with an
// escalating Manteuffel shift — factoring A + α·diag(A) — instead of
// failing, and the result must stay usable as an SPD preconditioner.
func TestIC0BreakdownRepairShiftsDiagonal(t *testing.T) {
	a := csrFromDense([][]float64{
		{1, 2},
		{2, 1},
	})
	p, err := NewIC0(a)
	if err != nil {
		t.Fatalf("breakdown repair should succeed: %v", err)
	}
	// The shift escalates by decades from 1e-3; the 2x2 needs
	// (1+α)² > 4 by more than the pivot floor (α = 1 leaves the pivot at
	// roundoff level), so the first winning shift is α = 10: the factor is
	// the exact Cholesky of [[11, 2], [2, 11]].
	if got, want := p.val[p.diag[0]], math.Sqrt(11.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shifted pivot 0 = %g, want √11 = %g", got, want)
	}
	if got, want := p.val[p.diag[1]], math.Sqrt(11.0-4.0/11.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shifted pivot 1 = %g, want %g", got, want)
	}
	// The scratch must be clean after a successful (repaired) factorization.
	for j, v := range p.colPos {
		if v != -1 {
			t.Fatalf("colPos[%d] = %d after repair, want -1", j, v)
		}
	}
	// The repaired factor must act as an SPD operator: z = M⁻¹r with
	// r = e_i must give zᵀr > 0 for every basis vector.
	z, r := make([]float64, 2), make([]float64, 2)
	for i := range r {
		r[0], r[1] = 0, 0
		r[i] = 1
		p.Apply(z, r)
		if z[i] <= 0 || math.IsNaN(z[i]) {
			t.Fatalf("repaired preconditioner not positive definite: z[%d] = %g", i, z[i])
		}
	}
}

// TestIC0ErrNotSPDLeavesScratchClean drives Refresh into the unrepairable
// branch (pivot breakdown with a non-positive original diagonal — the
// explicit zero at (1,1) is kept by the COO builder) and asserts ErrNotSPD
// leaves the colPos scratch reset, so a retry on corrected values succeeds
// — the exact fall-through the engine's preconditioner cache relies on.
func TestIC0ErrNotSPDLeavesScratchClean(t *testing.T) {
	good := csrFromDense([][]float64{
		{1, 2},
		{2, 5},
	})
	p, err := NewIC0(good)
	if err != nil {
		t.Fatalf("SPD seed matrix: %v", err)
	}
	bad := csrFromDense([][]float64{
		{1, 2},
		{2, 0},
	})
	if err := p.Refresh(bad); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("refresh on zero-diagonal breakdown: got %v, want ErrNotSPD", err)
	}
	for j, v := range p.colPos {
		if v != -1 {
			t.Fatalf("colPos[%d] = %d after ErrNotSPD, want -1 (scratch must stay clean)", j, v)
		}
	}
	// Retry with the original SPD values: must factorize cleanly and give
	// the exact dense Cholesky of the 2x2 (no dropping on a full pattern):
	// L = [[1,0],[2,1]].
	if err := p.Refresh(good); err != nil {
		t.Fatalf("retry after ErrNotSPD: %v", err)
	}
	want := []float64{1, 2, 1}
	for k, w := range want {
		if math.Abs(p.val[k]-w) > 1e-15 {
			t.Fatalf("retry factor entry %d = %g, want %g", k, p.val[k], w)
		}
	}
}

// TestIC0ErrNotSPDFromNew: the constructor path must also surface
// ErrNotSPD (not a repaired factor) when the original diagonal cannot
// back the shift.
func TestIC0ErrNotSPDFromNew(t *testing.T) {
	a := csrFromDense([][]float64{
		{1, 2},
		{2, 0},
	})
	if _, err := NewIC0(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("got %v, want ErrNotSPD", err)
	}
}
