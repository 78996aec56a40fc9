package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive-definite CSR matrix as
// A = Bᵀ·B + n·I with a sparse random B.
func randomSPD(rng *rand.Rand, n int) *CSR {
	b := randomCSR(rng, n, n, 4*n)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	g := Gain(b, w)
	// Shift the diagonal to guarantee positive definiteness.
	coo := NewCOO(n, n)
	for i := 0; i < g.Rows; i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			coo.Add(i, g.ColIdx[k], g.Val[k])
		}
		coo.Add(i, i, float64(n))
	}
	return coo.ToCSR()
}

func residualNorm(a *CSR, x, b []float64) float64 {
	ax := make([]float64, len(b))
	a.MulVec(ax, x)
	Sub(ax, b, ax)
	return Norm2(ax)
}

func TestCGSolvesSPDSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomSPD(rng, 50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !res.Converged {
		t.Fatal("CG did not converge")
	}
	if rn := residualNorm(a, res.X, b) / Norm2(b); rn > 1e-10 {
		t.Fatalf("relative residual %g too large", rn)
	}
}

func TestCGMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomSPD(rng, 30)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := CG(a, b, CGOptions{Tol: 1e-13})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	xd, err := SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	for i := range xd {
		if !almostEq(res.X[i], xd[i], 1e-7*(1+math.Abs(xd[i]))) {
			t.Fatalf("x[%d]: CG %v vs LU %v", i, res.X[i], xd[i])
		}
	}
}

func TestCGAllPreconditioners(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomSPD(rng, 80)
	b := make([]float64, 80)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatalf("jacobi: %v", err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("ic0: %v", err)
	}
	ldl, err := NewLDL(a)
	if err != nil {
		t.Fatalf("ldl: %v", err)
	}
	iters := map[string]int{}
	for _, p := range []Preconditioner{IdentityPreconditioner{}, jac, ic, ldl} {
		res, err := CG(a, b, CGOptions{Tol: 1e-10, Precond: p})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if rn := residualNorm(a, res.X, b) / Norm2(b); rn > 1e-9 {
			t.Fatalf("%s residual %g", p.Name(), rn)
		}
		iters[p.Name()] = res.Iterations
	}
	if iters["ldl"] != 1 {
		t.Errorf("a complete factor is an exact preconditioner: %d CG iterations, want 1", iters["ldl"])
	}
	if iters["ic0"] > iters["none"] {
		t.Errorf("IC(0) (%d iters) should not be slower than plain CG (%d iters)",
			iters["ic0"], iters["none"])
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randomSPD(rng, 10)
	res, err := CG(a, make([]float64, 10), CGOptions{})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !res.Converged || Norm2(res.X) != 0 {
		t.Fatal("zero rhs must return zero solution immediately")
	}
}

func TestCGInitialGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomSPD(rng, 40)
	xTrue := make([]float64, 40)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, 40)
	a.MulVec(b, xTrue)
	// Warm start at the exact solution: should converge in 0 iterations.
	res, err := CG(a, b, CGOptions{Tol: 1e-8, X0: xTrue})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("warm start took %d iterations, want 0", res.Iterations)
	}
}

func TestCGIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomSPD(rng, 60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, err := CG(a, b, CGOptions{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrCGDiverged) {
		t.Fatalf("err = %v, want ErrCGDiverged", err)
	}
}

func TestCGNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randomCSR(rng, 3, 4, 6)
	if _, err := CG(a, make([]float64, 3), CGOptions{}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCGIndefiniteDetected(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	_, err := CG(a, []float64{0, 1}, CGOptions{})
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// A NaN stops CG where it appears instead of running it to its 4n cap and
// naming slow convergence: in b at entry, in A at the first curvature. It is
// not ErrNotSPD either, which the estimator reads as unobservability.
func TestCGBreaksDownOnNaN(t *testing.T) {
	const n = 2000
	tridiag := func(nanAt int) *CSR {
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 4)
			if i > 0 {
				coo.Add(i, i-1, -1)
				coo.Add(i-1, i, -1)
			}
		}
		a := coo.ToCSR()
		if nanAt >= 0 {
			a.Val[nanAt] = math.NaN()
		}
		return a
	}
	ones := func() []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		return b
	}
	nanB := ones()
	nanB[n/2] = math.NaN()
	infB := ones()
	infB[7] = math.Inf(-1)
	for _, tc := range []struct {
		name string
		a    *CSR
		b    []float64
	}{
		{"NaN in b", tridiag(-1), nanB},
		{"-Inf in b", tridiag(-1), infB},
		{"NaN in A", tridiag(3 * n / 2), ones()},
	} {
		res, err := CG(tc.a, tc.b, CGOptions{})
		if !errors.Is(err, ErrCGBreakdown) || errors.Is(err, ErrNotSPD) {
			t.Fatalf("%s: err = %v, want ErrCGBreakdown and not ErrNotSPD", tc.name, err)
		}
		if res.Iterations > 1 {
			t.Fatalf("%s: %d iterations before the breakdown, want at most 1", tc.name, res.Iterations)
		}
	}
	// The same system without the NaN converges.
	if _, err := CG(tridiag(-1), ones(), CGOptions{}); err != nil {
		t.Fatalf("finite tridiagonal: %v", err)
	}
}

// Property: CG with Jacobi preconditioning solves every random SPD system
// to the requested tolerance.
func TestCGQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		jac, err := NewJacobi(a)
		if err != nil {
			return false
		}
		res, err := CG(a, b, CGOptions{Tol: 1e-9, Precond: jac})
		if err != nil {
			return false
		}
		return residualNorm(a, res.X, b)/Norm2(b) <= 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIC0ApplyIsSPDAction(t *testing.T) {
	// M⁻¹ must be SPD: check ⟨M⁻¹r, r⟩ > 0 for random r.
	rng := rand.New(rand.NewSource(50))
	a := randomSPD(rng, 25)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("ic0: %v", err)
	}
	for trial := 0; trial < 20; trial++ {
		r := make([]float64, 25)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, 25)
		ic.Apply(z, r)
		if Dot(z, r) <= 0 {
			t.Fatalf("⟨M⁻¹r, r⟩ = %v not positive", Dot(z, r))
		}
	}
}

func TestIC0ExactForDiagonal(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 4)
	coo.Add(1, 1, 9)
	coo.Add(2, 2, 16)
	a := coo.ToCSR()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("ic0: %v", err)
	}
	r := []float64{4, 9, 16}
	z := make([]float64, 3)
	ic.Apply(z, r)
	for i, want := range []float64{1, 1, 1} {
		if !almostEq(z[i], want, 1e-14) {
			t.Fatalf("z[%d] = %v, want %v", i, z[i], want)
		}
	}
}

func TestJacobiRejectsZeroDiagonal(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	a := coo.ToCSR() // (1,1) diagonal entry missing => zero
	if _, err := NewJacobi(a); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a pivot swap.
	a := NewDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// Property: LU solves random well-conditioned systems to high accuracy.
func TestLUQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.AddAt(i, i, float64(n)) // diagonal dominance for conditioning
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a.At(i, j) * xTrue[j]
			}
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8*(1+math.Abs(xTrue[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf")
	}
	y := CopyVec(a)
	Axpy(2, b, y)
	if y[0] != 9 || y[1] != 12 || y[2] != 15 {
		t.Fatalf("Axpy = %v", y)
	}
	d := make([]float64, 3)
	Sub(d, b, a)
	if d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("Sub = %v", d)
	}
}
