package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Add(0, 1, 2)
	coo.Add(2, 3, -1)
	coo.Add(1, 0, 5)
	coo.Add(0, 1, 3) // duplicate, must sum to 5
	a := coo.ToCSR()
	if a.Rows != 3 || a.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", a.Rows, a.Cols)
	}
	if got := a.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5 (duplicates summed)", got)
	}
	if got := a.At(1, 0); got != 5 {
		t.Errorf("At(1,0) = %v, want 5", got)
	}
	if got := a.At(2, 3); got != -1 {
		t.Errorf("At(2,3) = %v, want -1", got)
	}
	if got := a.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %v, want 0", got)
	}
	if a.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 after dedup", a.NNZ())
	}
}

// TestCSRNNZCountsPattern: a pattern without values, as a gain pattern is
// before its plan gives it some, reports the entries its ColIdx stores, as
// the valued matrix does.
func TestCSRNNZCountsPattern(t *testing.T) {
	a := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 3}, ColIdx: []int{0, 2, 1}}
	if got := a.NNZ(); got != 3 {
		t.Fatalf("values-free pattern: NNZ = %d, want 3", got)
	}
	a.Val = []float64{1, 2, 3}
	if got := a.NNZ(); got != 3 {
		t.Fatalf("valued matrix: NNZ = %d, want 3", got)
	}
}

func TestCSRRowsSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coo := NewCOO(20, 20)
	for k := 0; k < 400; k++ {
		coo.Add(rng.Intn(20), rng.Intn(20), rng.NormFloat64())
	}
	a := coo.ToCSR()
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k-1] >= a.ColIdx[k] {
				t.Fatalf("row %d not strictly sorted: col[%d]=%d col[%d]=%d",
					i, k-1, a.ColIdx[k-1], k, a.ColIdx[k])
			}
		}
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	coo := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return coo.ToCSR()
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(rng, 15, 9, 60)
	att := a.Transpose().Transpose()
	if att.Rows != a.Rows || att.Cols != a.Cols {
		t.Fatalf("shape after double transpose: %dx%d", att.Rows, att.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if !almostEq(a.At(i, j), att.At(i, j), 0) {
				t.Fatalf("(Aᵀ)ᵀ differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 8, 12, 40)
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 17, 11, 70)
	d := a.ToDense()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, a.Rows)
	a.MulVec(y, x)
	for i := 0; i < a.Rows; i++ {
		want := 0.0
		for j := 0; j < a.Cols; j++ {
			want += d.At(i, j) * x[j]
		}
		if !almostEq(y[i], want, 1e-12) {
			t.Fatalf("MulVec row %d = %v, want %v", i, y[i], want)
		}
	}
}

func TestMulTransVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(rng, 10, 6, 30)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, a.Cols)
	a.MulTransVec(y1, x)
	y2 := make([]float64, a.Cols)
	a.Transpose().MulVec(y2, x)
	for i := range y1 {
		if !almostEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("MulTransVec mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// Property: for random sparse A and vectors x, y the adjoint identity
// ⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩ holds to rounding error.
func TestAdjointIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCSR(rng, rows, cols, rng.Intn(rows*cols+1))
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, rows)
		a.MulVec(ax, x)
		aty := make([]float64, cols)
		a.MulTransVec(aty, y)
		return almostEq(Dot(ax, y), Dot(x, aty), 1e-8*(1+math.Abs(Dot(ax, y))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGainSymmetricAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randomCSR(rng, 14, 7, 50)
	w := make([]float64, h.Rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	g := Gain(h, w)
	if g.Rows != 7 || g.Cols != 7 {
		t.Fatalf("gain shape %dx%d", g.Rows, g.Cols)
	}
	hd := h.ToDense()
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			want := 0.0
			for m := 0; m < h.Rows; m++ {
				want += w[m] * hd.At(m, i) * hd.At(m, j)
			}
			if !almostEq(g.At(i, j), want, 1e-10) {
				t.Fatalf("gain (%d,%d) = %v, want %v", i, j, g.At(i, j), want)
			}
			if !almostEq(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("gain not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGainRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := randomCSR(rng, 9, 4, 20)
	w := make([]float64, 9)
	r := make([]float64, 9)
	for i := range w {
		w[i] = 1 + rng.Float64()
		r[i] = rng.NormFloat64()
	}
	g := GainRHS(h, w, r)
	hd := h.ToDense()
	for j := 0; j < 4; j++ {
		want := 0.0
		for m := 0; m < 9; m++ {
			want += hd.At(m, j) * w[m] * r[m]
		}
		if !almostEq(g[j], want, 1e-12) {
			t.Fatalf("GainRHS[%d] = %v, want %v", j, g[j], want)
		}
	}
}

func TestDiagonal(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, -3)
	coo.Add(1, 3, 5)
	coo.Add(2, 0, 9)
	d := []float64{7, 7, 7} // stale: a missing diagonal must read 0
	coo.ToCSR().DiagonalInto(d)
	want := []float64{2, -3, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("DiagonalInto[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DiagonalInto accepted a slice of the wrong length")
		}
	}()
	coo.ToCSR().DiagonalInto(make([]float64, 4))
}

func TestCloneIndependent(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	a := coo.ToCSR()
	b := a.Clone()
	b.Val[0] = 42
	if a.Val[0] == 42 {
		t.Fatal("Clone shares storage")
	}
}

func TestScale(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 3)
	coo.Add(1, 0, -2)
	a := coo.ToCSR()
	a.Scale(2)
	if a.At(0, 1) != 6 || a.At(1, 0) != -4 {
		t.Fatalf("Scale wrong: %v %v", a.At(0, 1), a.At(1, 0))
	}
}
