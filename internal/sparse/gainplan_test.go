package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.1 + rng.Float64()*10
	}
	return w
}

// eps is the spacing of float64 at 1, the unit of the summation-order bound.
var eps = math.Nextafter(1, 2) - 1

// absCSR returns a with every value replaced by its magnitude.
func absCSR(a *CSR) *CSR {
	b := a.Clone()
	for k, v := range b.Val {
		b.Val[k] = math.Abs(v)
	}
	return b
}

// checkGainPlanAgainstGain compares a refreshed plan with the COO reference
// assembly Gain(h, w): the same pattern, and every entry within
// 8·ε·Σ|w·h·h| of the reference. The two sum an entry's contributions in
// different orders (the plan in ascending measurement order, Gain in
// whatever order COO.ToCSR's unstable row sort leaves), so bitwise equality
// is not a contract; a few ulps of the absolute sum is.
func checkGainPlanAgainstGain(t *testing.T, got *CSR, h *CSR, w []float64) {
	t.Helper()
	want, scale := Gain(h, w), Gain(absCSR(h), w)
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape mismatch: got %dx%d/%d want %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] %d != %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range got.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("ColIdx[%d] %d != %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if d := math.Abs(got.Val[k] - want.Val[k]); d > 8*eps*scale.Val[k] {
			t.Fatalf("Val[%d] %v vs reference %v: |Δ| %.3g > 8ε·Σ|w·h·h| = %.3g",
				k, got.Val[k], want.Val[k], d, 8*eps*scale.Val[k])
		}
	}
}

// TestGainPlanMatchesGain is the core parity property: a numeric
// refresh over the plan reproduces the triplet-based
// Gain assembly — pattern for pattern, and value for value up to the order
// in which an entry's contributions are summed.
func TestGainPlanMatchesGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows := 5 + rng.Intn(40)
		cols := 3 + rng.Intn(15)
		h := randomCSR(rng, rows, cols, rows*3)
		w := randomWeights(rng, rows)

		gp := NewGainPlan(h)
		checkGainPlanAgainstGain(t, gp.Refresh(h, w), h, w)

		// New numeric values on the same pattern: refresh again and compare.
		for k := range h.Val {
			h.Val[k] = rng.NormFloat64()
		}
		checkGainPlanAgainstGain(t, gp.Refresh(h, w), h, w)
	}
}

// raggedCSR builds an H that COO.ToCSR would never produce but the plan
// must accept: row 0 is empty, row 1 is the only row touching column
// cols-2 (a G row holding its diagonal alone), row 2 lists one column
// twice, the other rows list up to five random columns unsorted and
// possibly repeated, and no row touches column cols-1.
func raggedCSR(rng *rand.Rand, rows, cols int) *CSR {
	h := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for m := 0; m < rows; m++ {
		switch m {
		case 0:
		case 1:
			h.ColIdx = append(h.ColIdx, cols-2)
		case 2:
			c := rng.Intn(cols - 2)
			h.ColIdx = append(h.ColIdx, c, rng.Intn(cols-2), c)
		default:
			for d := rng.Intn(6); d > 0; d-- {
				h.ColIdx = append(h.ColIdx, rng.Intn(cols-2))
			}
		}
		h.RowPtr[m+1] = len(h.ColIdx)
	}
	h.Val = make([]float64, len(h.ColIdx))
	for k := range h.Val {
		h.Val[k] = rng.NormFloat64()
	}
	return h
}

// TestGainPlanMatchesDenseProduct checks the plan against a dense
// triple-loop HᵀWH on ragged inputs, in natural order and under a random
// symmetric permutation.
func TestGainPlanMatchesDenseProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 3+rng.Intn(30), 3+rng.Intn(12)
		h := raggedCSR(rng, rows, cols)
		w := randomWeights(rng, rows)

		// Dense H and |H| (repeated columns summed), then G and the
		// magnitude Σ w·|h|·|h| of what each entry sums.
		hd, ha := NewDense(rows, cols), NewDense(rows, cols)
		touched := make([]bool, cols)
		for m := 0; m < rows; m++ {
			for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
				hd.AddAt(m, h.ColIdx[p], h.Val[p])
				ha.AddAt(m, h.ColIdx[p], math.Abs(h.Val[p]))
				touched[h.ColIdx[p]] = true
			}
		}
		want, scale := NewDense(cols, cols), NewDense(cols, cols)
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				for m := 0; m < rows; m++ {
					want.AddAt(i, j, w[m]*hd.At(m, i)*hd.At(m, j))
					scale.AddAt(i, j, w[m]*ha.At(m, i)*ha.At(m, j))
				}
			}
		}

		natural := make([]int, cols)
		for c := range natural {
			natural[c] = c
		}
		for _, ord := range [][]int{nil, rng.Perm(cols)} {
			of := ord // of[r] is the column of H that feeds row r of G
			if ord == nil {
				of = natural
			}
			// Column cols-1 is untouched, so G has an empty row.
			empty := slices.IndexFunc(of, func(c int) bool { return !touched[c] })
			gp := NewGainPlanOrdered(h, ord)
			if got := gp.EmptyRow(); got != empty {
				t.Fatalf("trial %d perm %v: EmptyRow() = %d, want %d", trial, ord != nil, got, empty)
			}
			g := gp.Refresh(h, w)
			for r := 0; r < cols; r++ {
				for k := g.RowPtr[r] + 1; k < g.RowPtr[r+1]; k++ {
					if g.ColIdx[k] <= g.ColIdx[k-1] {
						t.Fatalf("trial %d: G row %d columns not strictly ascending: %v",
							trial, r, g.ColIdx[g.RowPtr[r]:g.RowPtr[r+1]])
					}
				}
				for c := 0; c < cols; c++ {
					i, j := of[r], of[c]
					if d := math.Abs(g.At(r, c) - want.At(i, j)); d > 8*eps*scale.At(i, j) {
						t.Fatalf("trial %d perm %v: G(%d,%d) = %v, dense HᵀWH(%d,%d) = %v",
							trial, ord != nil, r, c, g.At(r, c), i, j, want.At(i, j))
					}
				}
			}
		}
	}
}

// TestGainPlanBuildDeterministic: two plans built from one H hold the same
// column lists, so their refreshes agree bit for bit — what lets a rebuilt
// engine (a cold solve, a pool re-prime) reproduce the previous one exactly.
func TestGainPlanBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randomCSR(rng, 80, 25, 400)
	w := randomWeights(rng, 80)
	a := NewGainPlan(h).Refresh(h, w)
	b := NewGainPlan(h).Refresh(h, w)
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("Val[%d]: first build %v, second build %v", k, a.Val[k], b.Val[k])
		}
	}
}

// TestGainPlanOrderedEqualsPermutedNaturalPlan: the contribution order
// inside an entry does not depend on the permutation, so the ordered plan's
// G is PermuteSym of the natural plan's G entry for entry and bit for bit.
func TestGainPlanOrderedEqualsPermutedNaturalPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := randomCSR(rng, 90, 35, 260)
	w := randomWeights(rng, 90)
	natural := NewGainPlan(h).Refresh(h, w)
	perm := MinDegree(natural)
	want := PermuteSym(natural, perm)
	got := NewGainPlanOrdered(h, perm).Refresh(h, w)
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for i := 0; i < got.Rows; i++ {
		if got.RowPtr[i+1] != want.RowPtr[i+1] {
			t.Fatalf("RowPtr[%d] %d != %d", i+1, got.RowPtr[i+1], want.RowPtr[i+1])
		}
		for k := got.RowPtr[i]; k < got.RowPtr[i+1]; k++ {
			if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("entry %d of row %d: (%d, %v), want (%d, %v)",
					k-got.RowPtr[i], i, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
			}
		}
	}
}

// replayGain is the refresh GainPlan ran before it read G off H's columns,
// kept as the oracle for its summation order: every entry (r, j) of g's
// pattern on its own, its products taken in ascending measurement and then
// H.Val index order, each one w·hA·hB added to a sum that starts at zero.
// perm is the plan's (nil for natural order).
func replayGain(h *CSR, w []float64, perm []int, g *CSR) []float64 {
	col := h.ColIdx
	if perm != nil {
		inv := InversePerm(perm)
		col = make([]int, len(h.ColIdx))
		for p, c := range h.ColIdx {
			col[p] = inv[c]
		}
	}
	val := make([]float64, g.NNZ())
	for r := 0; r < g.Rows; r++ {
		for e := g.RowPtr[r]; e < g.RowPtr[r+1]; e++ {
			sum := 0.0
			for m := 0; m < h.Rows; m++ {
				for a := h.RowPtr[m]; a < h.RowPtr[m+1]; a++ {
					if col[a] != r {
						continue
					}
					for b := h.RowPtr[m]; b < h.RowPtr[m+1]; b++ {
						if col[b] == g.ColIdx[e] {
							sum += w[m] * h.Val[a] * h.Val[b]
						}
					}
				}
			}
			val[e] = sum
		}
	}
	return val
}

// assertBitEqual fails unless got and want hold the same float64 bit
// patterns, which also tells 0 from -0 and one NaN from another.
func assertBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: Val[%d] = %v, replayed order gives %v", what, k, got[k], want[k])
		}
	}
}

// assertAccumulatorsZero: every worker's dense row is all zero again once a
// refresh has returned — what the next row, and the next refresh, rely on.
func assertAccumulatorsZero(t *testing.T, what string, gp *GainPlan) {
	t.Helper()
	for part, acc := range gp.acc {
		for j, v := range acc {
			if v != 0 {
				t.Fatalf("%s: accumulator %d holds %v at column %d after the refresh", what, part, v, j)
			}
		}
	}
}

// TestGainRefreshReplaysOldOrder: reading row r of G off column r of H sums
// every entry's products in the order the scatter map listed them, so G is
// what it was bit for bit — on ragged H (empty, unsorted and column-repeating
// rows), in natural order and under a random permutation, and on a second
// refresh with new values and weights.
func TestGainRefreshReplaysOldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 3+rng.Intn(30), 3+rng.Intn(12)
		h := raggedCSR(rng, rows, cols)
		for _, perm := range [][]int{nil, rng.Perm(cols)} {
			gp := NewGainPlanOrdered(h, perm)
			for pass := 0; pass < 2; pass++ {
				for k := range h.Val {
					h.Val[k] = rng.NormFloat64()
				}
				w := randomWeights(rng, rows)
				g := gp.Refresh(h, w)
				assertBitEqual(t, "ragged H", g.Val, replayGain(h, w, perm, g))
				assertAccumulatorsZero(t, "ragged H", gp)
			}
		}
	}
}

// TestGainRefreshPooledReplaysOldOrder: the same equality on an H large
// enough for the pooled path, for 1, 2, 3 and 8 workers, scalar and blocked,
// twice in a row with different values. A worker's rows do not change what an
// entry sums, and each worker leaves its own accumulator zero. Run under
// -race this is also the check that workers share nothing they write.
func TestGainRefreshPooledReplaysOldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, cols = 420, 90
	h := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for m := 0; m < rows; m++ {
		for d := 4 + rng.Intn(8); d > 0 && m%17 != 0; d-- { // every 17th row is empty
			h.ColIdx = append(h.ColIdx, rng.Intn(cols)) // unsorted, may repeat
		}
		h.RowPtr[m+1] = len(h.ColIdx)
	}
	h.Val = make([]float64, len(h.ColIdx))
	perm := rng.Perm(cols)
	// Two sets of values and weights, replayed once each on the pattern every
	// plan below shares.
	pattern := NewGainPlanOrdered(h, perm).G
	var vals, weights, wants [2][]float64
	for pass := range vals {
		vals[pass] = make([]float64, len(h.ColIdx))
		for k := range vals[pass] {
			vals[pass][k] = rng.NormFloat64()
		}
		weights[pass] = randomWeights(rng, rows)
		h.Val = vals[pass]
		wants[pass] = replayGain(h, weights[pass], perm, pattern)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		pool := NewPool(workers)
		gp := NewGainPlanOrdered(h, perm)
		if gp.rowWork[cols] < parallelNNZThreshold {
			t.Fatalf("fixture sums %d products, below the pooled threshold %d", gp.rowWork[cols], parallelNNZThreshold)
		}
		for pass, want := range wants {
			h.Val = vals[pass]
			what := fmt.Sprintf("RefreshPool, %d workers, pass %d", workers, pass)
			assertBitEqual(t, what, gp.RefreshPool(h, weights[pass], pool).Val, want)
			assertAccumulatorsZero(t, what, gp)
			if len(gp.acc) != workers {
				t.Fatalf("%s: %d accumulators, want one per worker", what, len(gp.acc))
			}

			what = fmt.Sprintf("RefreshPoolBSR, %d workers, pass %d", workers, pass)
			clear(gp.G.Val) // the blocked refresh must not lean on the scalar one
			blocked := gp.RefreshPoolBSR(h, weights[pass], pool)
			got := make([]float64, len(want))
			for e := range got {
				got[e] = blocked.Val[gp.bsrPos[e]]
			}
			assertBitEqual(t, what, got, want)
			assertAccumulatorsZero(t, what, gp)
		}
		pool.Close()
	}
}

// TestGainPlanRejectsInt32Overflow: the plan indexes H entries and
// contributions with int32. One row of 46 341 entries is Σd² > MaxInt32 on
// an H of a few hundred kilobytes; the builder must refuse it by name
// before allocating anything of that size.
func TestGainPlanRejectsInt32Overflow(t *testing.T) {
	const d = 46341 // d² = 2 147 488 281 > math.MaxInt32
	h := &CSR{Rows: 1, Cols: d, RowPtr: []int{0, d}, ColIdx: make([]int, d), Val: make([]float64, d)}
	for k := range h.ColIdx {
		h.ColIdx[k] = k
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "46341 H entries") || !strings.Contains(msg, "2147488281 contributions") {
			t.Fatalf("panic %q does not name both sizes", msg)
		}
	}()
	NewGainPlan(h)
	t.Fatal("a plan with more than MaxInt32 contributions was built")
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

// TestDefaultPoolFollowsGOMAXPROCS: the shared pool, started once, splits
// every pooled kernel into as many parts as GOMAXPROCS allows at the call,
// up to one per CPU, and never has more parts of a Run in flight — under
// each GOMAXPROCS of go test -cpu 1,2,4 and after GOMAXPROCS changes.
func TestDefaultPoolFollowsGOMAXPROCS(t *testing.T) {
	p := DefaultPool()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, n := range []int{procs, 1, 2, 4} {
		runtime.GOMAXPROCS(n)
		want := min(runtime.NumCPU(), n)
		if got := p.Workers(); got != want {
			t.Fatalf("GOMAXPROCS %d on %d CPUs: %d parts, want %d", n, runtime.NumCPU(), got, want)
		}
		var active, peak atomic.Int64
		p.Run(64, func(int) {
			a := active.Add(1)
			for old := peak.Load(); a > old && !peak.CompareAndSwap(old, a); old = peak.Load() {
			}
			time.Sleep(20 * time.Microsecond)
			active.Add(-1)
		})
		if peak.Load() > int64(want) {
			t.Fatalf("GOMAXPROCS %d: %d parts ran at once, want at most %d", n, peak.Load(), want)
		}
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
