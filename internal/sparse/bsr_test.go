package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomSquareWithDiag builds a random square CSR with a fully stored
// diagonal — the shape of a gain matrix, which the blocked format targets.
func randomSquareWithDiag(rng *rand.Rand, n, nnz int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
	}
	for k := 0; k < nnz; k++ {
		coo.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return coo.ToCSR()
}

func TestBSRBuilderPreservesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 8, 33} {
		a := randomCSR(rng, n, n, 4*n)
		b := NewBSR2(a)
		wantDim := n
		if n%2 == 1 {
			wantDim++
		}
		if b.Rows != wantDim || b.Cols != wantDim {
			t.Fatalf("n=%d: BSR dims %dx%d, want %d", n, b.Rows, b.Cols, wantDim)
		}
		if b.Padded() != (n%2 == 1) {
			t.Fatalf("n=%d: Padded() = %v", n, b.Padded())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := b.At(i, j), a.At(i, j); got != want {
					t.Fatalf("n=%d: At(%d,%d) = %v, want %v", n, i, j, got, want)
				}
			}
		}
		if b.Padded() {
			for j := 0; j < n; j++ {
				if b.At(n, j) != 0 || b.At(j, n) != 0 {
					t.Fatalf("n=%d: padding row/col not zero at %d", n, j)
				}
			}
			if b.At(n, n) != 1 {
				t.Fatalf("n=%d: padding diagonal = %v, want 1", n, b.At(n, n))
			}
		}
	}
}

func TestBSRMatVecMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 9, 30, 57} {
		a := randomSquareWithDiag(rng, n, 5*n)
		b := NewBSR2(a)
		x := make([]float64, b.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		a.MulVec(want, x[:n])
		got := make([]float64, b.Rows)
		b.MulVec(got, x)
		for i := 0; i < n; i++ {
			// The blocked kernel replays the scalar accumulation order, so
			// the match is exact, not approximate.
			if got[i] != want[i] {
				t.Fatalf("n=%d: y[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if b.Padded() && got[n] != x[n] {
			t.Fatalf("n=%d: padding output %v, want identity pass-through %v", n, got[n], x[n])
		}
	}
}

// TestBSRMulVecRangesMatchesSerial: the pooled mat-vec CG runs, over the
// cached block-row partition, is the serial kernel's bit for bit.
func TestBSRMulVecRangesMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Big enough that NNZ crosses the parallel threshold and the pooled
	// path actually partitions.
	a := randomSquareWithDiag(rng, 400, 20000)
	b := NewBSR2(a)
	if b.NNZ() < parallelNNZThreshold {
		t.Fatalf("fixture too small: nnz %d", b.NNZ())
	}
	x := make([]float64, b.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, b.Rows)
	b.MulVec(want, x)
	p := NewPool(4)
	defer p.Close()
	got := make([]float64, b.Rows)
	parts := p.Workers()
	bounds := make([]int, parts+1)
	b.partitionRows(bounds, parts)
	if bounds[0] != 0 || bounds[parts] != len(b.RowPtr)-1 {
		t.Fatalf("partition bounds %v do not cover %d block rows", bounds, len(b.RowPtr)-1)
	}
	b.mulVecRanges(got, x, p, bounds)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranged y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBSRGainRefreshBitwise: a blocked refresh through the gain plan's
// entry-to-slot map must hold exactly the values of the scalar refresh — same
// contributions, same order, different storage.
func TestBSRGainRefreshBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		rows := 20 + rng.Intn(60)
		cols := 5 + rng.Intn(24)
		h := randomCSR(rng, rows, cols, rows*4)
		w := randomWeights(rng, rows)
		gp := NewGainPlan(h)
		g := gp.Refresh(h, w)
		bsr := gp.RefreshPoolBSR(h, w, nil)
		for i := 0; i < g.Rows; i++ {
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				if got, want := bsr.At(i, g.ColIdx[k]), g.Val[k]; got != want {
					t.Fatalf("trial %d: blocked G(%d,%d) = %v, want %v", trial, i, g.ColIdx[k], got, want)
				}
			}
		}
		// Full mat-vec equality also covers the zero padding slots.
		x := make([]float64, bsr.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, g.Rows)
		g.MulVec(want, x[:g.Cols])
		got := make([]float64, bsr.Rows)
		bsr.MulVec(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: blocked mat-vec y[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBSRRefreshPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomCSR(rng, 600, 120, 600*8) // contributions cross the threshold
	w := randomWeights(rng, 600)
	serial := NewGainPlan(h)
	serial.RefreshPoolBSR(h, w, nil)
	pooled := NewGainPlan(h)
	p := NewPool(4)
	defer p.Close()
	bp := pooled.RefreshPoolBSR(h, w, p)
	bs := serial.AttachBSR()
	for i, v := range bs.Val {
		if bp.Val[i] != v {
			t.Fatalf("pooled blocked refresh Val[%d] = %v, want %v", i, bp.Val[i], v)
		}
	}
}

func TestBSRRefreshAndMatVecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := randomCSR(rng, 120, 41, 120*6) // odd dimension: padded layout
	w := randomWeights(rng, 120)
	gp := NewGainPlan(h)
	bsr := gp.RefreshPoolBSR(h, w, nil)
	if allocs := testing.AllocsPerRun(20, func() { gp.RefreshPoolBSR(h, w, nil) }); allocs != 0 {
		t.Fatalf("RefreshPoolBSR allocated %v times per run, want 0", allocs)
	}
	x := make([]float64, bsr.Cols)
	y := make([]float64, bsr.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(20, func() { bsr.MulVec(y, x) }); allocs != 0 {
		t.Fatalf("BSR MulVec allocated %v times per run, want 0", allocs)
	}
	d := make([]float64, bsr.Rows)
	if allocs := testing.AllocsPerRun(20, func() { bsr.DiagonalInto(d) }); allocs != 0 {
		t.Fatalf("BSR DiagonalInto allocated %v times per run, want 0", allocs)
	}
}

func TestBusInterleaveLayout(t *testing.T) {
	// 4 buses, reference bus 1: angle positions are bus0→0, bus2→1, bus3→2
	// and magnitudes 3..6. Natural bus order pairs each bus's (θ, V) and
	// trails the reference magnitude.
	got := BusInterleave(3, 4, 1, nil)
	want := []int{0, 3, 1, 5, 2, 6, 4}
	if len(got) != len(want) {
		t.Fatalf("perm length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perm = %v, want %v", got, want)
		}
	}
	// Custom bus order: visit 3, (ref skipped in place), 0, 2; ref still last.
	got = BusInterleave(3, 4, 1, []int{3, 1, 0, 2})
	want = []int{2, 6, 0, 3, 1, 5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ordered perm = %v, want %v", got, want)
		}
	}
	checkPerm(got, 7, "TestBusInterleaveLayout")
}

// TestCGPaddedPermMatchesNatural: solving on the padded blocked operator
// through a −1-extended permutation must reproduce the natural scalar
// solve — the padding variable is inert.
func TestCGPaddedPermMatchesNatural(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 41 // odd: the blocked operator pads to 42
	a := randomSPD(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("natural CG: %v", err)
	}

	perm := rand.New(rand.NewSource(8)).Perm(n)
	pa := PermuteSym(a, perm)
	bsr := NewBSR2(pa)
	if !bsr.Padded() {
		t.Fatal("expected a padded blocked operator")
	}
	cgPerm := make([]int, bsr.Rows)
	copy(cgPerm, perm)
	cgPerm[n] = -1
	work := NewCGWorkspace(bsr.Rows)
	got, err := CG(bsr, b, CGOptions{Tol: 1e-12, Perm: cgPerm, Work: work})
	if err != nil {
		t.Fatalf("padded permuted CG: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(got.X[i]-ref.X[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, got.X[i], ref.X[i])
		}
	}

	// Warm start in caller space (length n, not padded) must be accepted
	// and behave like the scalar path's gate.
	warm, err := CG(bsr, b, CGOptions{Tol: 1e-12, Perm: cgPerm, Work: work, X0: ref.X[:n]})
	if err != nil {
		t.Fatalf("warm padded CG: %v", err)
	}
	if warm.Iterations > got.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, got.Iterations)
	}
}

func TestMulTransVecPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(rng, 500, 90, 26000)
	if a.NNZ() < parallelNNZThreshold {
		t.Fatalf("fixture too small: nnz %d", a.NNZ())
	}
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.Cols)
	a.MulTransVec(want, x)
	p := NewPool(4)
	defer p.Close()
	scratch := make([]float64, p.Workers()*a.Cols)
	got := make([]float64, a.Cols)
	a.MulTransVecPool(got, x, p, scratch)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("pooled yᵀ[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Scratch is caller-owned, so steady-state cost is only the constant
	// Pool.Run hand-off (run header + closure per pass), independent of
	// matrix size.
	if allocs := testing.AllocsPerRun(20, func() { a.MulTransVecPool(got, x, p, scratch) }); allocs > 8 {
		t.Fatalf("MulTransVecPool allocated %v times per run", allocs)
	}
	// Short scratch degrades to the serial kernel.
	a.MulTransVecPool(got, x, p, scratch[:1])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serial-fallback yᵀ[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJacobiBSRMatchesScalarJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomCSR(rng, 150, 31, 150*5) // odd: padded blocked layout
	w := randomWeights(rng, 150)
	gp := NewGainPlan(h)
	g := gp.Refresh(h, w)
	bsr := gp.RefreshPoolBSR(h, w, nil)
	scalar, err := NewJacobi(g)
	if err != nil {
		t.Fatalf("NewJacobi: %v", err)
	}
	blocked, err := NewJacobiBSR(bsr)
	if err != nil {
		t.Fatalf("NewJacobiBSR: %v", err)
	}
	r := make([]float64, bsr.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	zs := make([]float64, g.Rows)
	zb := make([]float64, bsr.Rows)
	scalar.Apply(zs, r[:g.Rows])
	blocked.Apply(zb, r)
	for i := range zs {
		if zb[i] != zs[i] {
			t.Fatalf("blocked jacobi z[%d] = %v, want %v", i, zb[i], zs[i])
		}
	}
	// Padding diagonal is 1: the padded component passes through.
	if zb[g.Rows] != r[g.Rows] {
		t.Fatalf("padding component %v, want pass-through %v", zb[g.Rows], r[g.Rows])
	}
}
