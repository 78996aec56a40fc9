package sparse

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.1 + rng.Float64()*10
	}
	return w
}

// TestGainPlanBitwiseMatchesGain is the core parity property: a numeric
// refresh over the precomputed scatter map must reproduce the legacy
// triplet-based Gain assembly bit for bit, because the plan replays the
// same contribution order.
func TestGainPlanBitwiseMatchesGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows := 5 + rng.Intn(40)
		cols := 3 + rng.Intn(15)
		h := randomCSR(rng, rows, cols, rows*3)
		w := randomWeights(rng, rows)

		gp := NewGainPlan(h)
		got := gp.Refresh(h, w)
		want := Gain(h, w)

		if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: shape mismatch: got %dx%d/%d want %dx%d/%d",
				trial, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
		}
		for i := 0; i <= got.Rows; i++ {
			if got.RowPtr[i] != want.RowPtr[i] {
				t.Fatalf("trial %d: RowPtr[%d] %d != %d", trial, i, got.RowPtr[i], want.RowPtr[i])
			}
		}
		for k := range got.ColIdx {
			if got.ColIdx[k] != want.ColIdx[k] {
				t.Fatalf("trial %d: ColIdx[%d] %d != %d", trial, k, got.ColIdx[k], want.ColIdx[k])
			}
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("trial %d: Val[%d] %v (%#x) != %v (%#x)", trial, k,
					got.Val[k], math.Float64bits(got.Val[k]), want.Val[k], math.Float64bits(want.Val[k]))
			}
		}

		// New numeric values on the same pattern: refresh again and compare.
		for k := range h.Val {
			h.Val[k] = rng.NormFloat64()
		}
		got = gp.Refresh(h, w)
		want = Gain(h, w)
		for k := range got.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("trial %d after value change: Val[%d] %v != %v", trial, k, got.Val[k], want.Val[k])
			}
		}
	}
}

func TestGainPlanPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomCSR(rng, 600, 200, 600*40)
	w := randomWeights(rng, 600)
	gp := NewGainPlan(h)
	serial := CopyVec(gp.Refresh(h, w).Val)

	p := NewPool(4)
	defer p.Close()
	pooled := gp.RefreshPool(h, w, p)
	for k := range serial {
		if math.Float64bits(serial[k]) != math.Float64bits(pooled.Val[k]) {
			t.Fatalf("Val[%d]: serial %v != pooled %v", k, serial[k], pooled.Val[k])
		}
	}
}

func TestGainPlanRefreshZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomCSR(rng, 120, 40, 120*6)
	w := randomWeights(rng, 120)
	gp := NewGainPlan(h)
	gp.Refresh(h, w)
	if allocs := testing.AllocsPerRun(20, func() { gp.Refresh(h, w) }); allocs != 0 {
		t.Fatalf("GainPlan.Refresh allocated %v times per run, want 0", allocs)
	}
}

func TestGainPlanPatternDriftPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := randomCSR(rng, 20, 10, 60)
	gp := NewGainPlan(h)
	other := randomCSR(rng, 21, 10, 60)
	defer func() {
		if recover() == nil {
			t.Fatal("refresh with a different H shape did not panic")
		}
	}()
	gp.Refresh(other, randomWeights(rng, 21))
}

func TestPoolRunCoversAllParts(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, parts := range []int{1, 2, 3, 7, 64} {
		var hits []atomic.Int64
		hits = make([]atomic.Int64, parts)
		p.Run(parts, func(part int) { hits[part].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("parts=%d: part %d ran %d times", parts, i, hits[i].Load())
			}
		}
	}
}

func TestPoolNilFallsBackInline(t *testing.T) {
	var p *Pool
	ran := 0
	p.Run(4, func(part int) { ran++ })
	if ran != 4 {
		t.Fatalf("nil pool ran %d parts, want 4", ran)
	}
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
}

func TestDefaultPoolShared(t *testing.T) {
	if DefaultPool() != DefaultPool() {
		t.Fatal("DefaultPool returned distinct pools")
	}
	var n atomic.Int64
	DefaultPool().Run(8, func(part int) { n.Add(1) })
	if n.Load() != 8 {
		t.Fatalf("ran %d parts, want 8", n.Load())
	}
}

func TestMulVecPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomCSR(rng, 500, 300, 3*parallelNNZThreshold)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)

	p := NewPool(5)
	defer p.Close()
	got := make([]float64, a.Rows)
	a.MulVecPool(got, x, p)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("y[%d]: serial %v != pooled %v", i, want[i], got[i])
		}
	}
}

func TestRowBoundaryPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 97, 40, 2000)
	for parts := 1; parts <= 10; parts++ {
		prev := 0
		for w := 0; w <= parts; w++ {
			b := a.rowBoundary(w, parts)
			if b < prev {
				t.Fatalf("parts=%d: boundary(%d)=%d < boundary(%d)=%d", parts, w, b, w-1, prev)
			}
			prev = b
		}
		if a.rowBoundary(0, parts) != 0 || a.rowBoundary(parts, parts) != a.Rows {
			t.Fatalf("parts=%d: boundaries don't span [0, rows]", parts)
		}
	}
}

func TestCGWorkspaceReuseAndWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomSPD(rng, 60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	cold, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}

	// Warm start at the exact solution: must converge immediately (0 or 1
	// iterations) and never be slower than the cold solve.
	work := NewCGWorkspace(60)
	warm, err := CG(a, b, CGOptions{Tol: 1e-12, X0: cold.X, Work: work})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	if &warm.X[0] != &work.X[0] {
		t.Fatal("result does not alias the provided workspace")
	}

	// A hostile guess (far from the solution) must be discarded, matching
	// the zero-start iteration count exactly.
	bad := make([]float64, 60)
	for i := range bad {
		bad[i] = 1e6 * (rng.Float64() - 0.5)
	}
	guarded, err := CG(a, b, CGOptions{Tol: 1e-12, X0: bad, Work: work})
	if err != nil {
		t.Fatalf("guarded solve: %v", err)
	}
	if guarded.Iterations != cold.Iterations {
		t.Fatalf("hostile warm start changed iteration count: %d vs %d", guarded.Iterations, cold.Iterations)
	}

	// Workspace reuse across different dimensions must resize safely.
	small := randomSPD(rng, 12)
	bs := make([]float64, 12)
	for i := range bs {
		bs[i] = rng.NormFloat64()
	}
	if _, err := CG(small, bs, CGOptions{Tol: 1e-12, Work: work}); err != nil {
		t.Fatalf("resized workspace solve: %v", err)
	}
}

func TestCGPoolMatchesGoroutineParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomSPD(rng, 150)
	b := make([]float64, 150)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	plain, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(4)
	defer p.Close()
	pooled, err := CG(a, b, CGOptions{Tol: 1e-12, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != pooled.Iterations {
		t.Fatalf("pool changed CG iterations: %d vs %d", pooled.Iterations, plain.Iterations)
	}
	for i := range plain.X {
		if math.Float64bits(plain.X[i]) != math.Float64bits(pooled.X[i]) {
			t.Fatalf("x[%d]: plain %v != pooled %v", i, plain.X[i], pooled.X[i])
		}
	}
}

func TestPreconditionerRefreshMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomSPD(rng, 40)
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ldl, err := NewLDL(a)
	if err != nil {
		t.Fatal(err)
	}

	// New numerics on the unchanged pattern: a uniform scaling keeps the
	// matrix SPD, so every factorization remains well-defined.
	scaled := a.Clone()
	for k := range scaled.Val {
		scaled.Val[k] *= 1.75
	}
	refreshers := []struct {
		name string
		p    Preconditioner
		mk   func(*CSR) (Preconditioner, error)
	}{
		{"jacobi", jac, func(m *CSR) (Preconditioner, error) { return NewJacobi(m) }},
		{"ic0", ic, func(m *CSR) (Preconditioner, error) { return NewIC0(m) }},
		{"ldl", ldl, func(m *CSR) (Preconditioner, error) { return NewLDL(m) }},
	}
	for _, tc := range refreshers {
		ref, ok := tc.p.(interface{ Refresh(*CSR) error })
		if !ok {
			t.Fatalf("%s has no in-place Refresh", tc.name)
		}
		if err := ref.Refresh(scaled); err != nil {
			t.Fatalf("%s refresh: %v", tc.name, err)
		}
		fresh, err := tc.mk(scaled)
		if err != nil {
			t.Fatalf("%s rebuild: %v", tc.name, err)
		}
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		yRef := make([]float64, a.Rows)
		yNew := make([]float64, a.Rows)
		tc.p.Apply(yRef, x)
		fresh.Apply(yNew, x)
		for i := range yRef {
			if math.Float64bits(yRef[i]) != math.Float64bits(yNew[i]) {
				t.Fatalf("%s: refreshed apply differs at %d: %v vs %v", tc.name, i, yRef[i], yNew[i])
			}
		}
	}
}
