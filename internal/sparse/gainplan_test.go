package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// raggedCSR builds an H with the corners a measured network may not show:
// row 0 is empty, row 1 is the only row touching column cols-2 (a G row
// holding its diagonal alone), the other rows list up to five distinct
// random columns, ascending as a plan requires, and no row touches column
// cols-1.
func raggedCSR(rng *rand.Rand, rows, cols int) *CSR {
	h := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for m := 0; m < rows; m++ {
		switch m {
		case 0:
		case 1:
			h.ColIdx = append(h.ColIdx, cols-2)
		default:
			row := rng.Perm(cols - 2)[:rng.Intn(min(6, cols-1))]
			slices.Sort(row)
			h.ColIdx = append(h.ColIdx, row...)
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

		// Dense H and |H|, then G and the magnitude Σ w·|h|·|h| of what each
		// entry sums.
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
// kept as the oracle for its summation order: every entry (r, j), j ≤ r, of
// g's pattern on its own, its products taken in ascending measurement and
// then H.Val index order, each one w·hA·hB (hA in column r) added to a sum
// that starts at zero. An entry above the diagonal holds its mirror's sum,
// so the oracle is bitwise symmetric. g must be in natural order.
func replayGain(h *CSR, w []float64, g *CSR) []float64 {
	val := make([]float64, g.NNZ())
	for r := 0; r < g.Rows; r++ {
		for e := g.RowPtr[r]; e < g.RowPtr[r+1]; e++ {
			i, j := max(r, g.ColIdx[e]), min(r, g.ColIdx[e])
			sum := 0.0
			for m := 0; m < h.Rows; m++ {
				for a := h.RowPtr[m]; a < h.RowPtr[m+1]; a++ {
					if h.ColIdx[a] != i {
						continue
					}
					for b := h.RowPtr[m]; b < h.RowPtr[m+1]; b++ {
						if h.ColIdx[b] == j {
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

// replayOrdered is the oracle for an ordered plan's G: PermuteSym of the
// replayed natural G, whose pattern the ordered plan shares.
func replayOrdered(h *CSR, w []float64, perm []int) []float64 {
	g := NewGainPlan(h).G
	return PermuteSym(&CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: replayGain(h, w, g)}, perm).Val
}

// assertSymmetric fails unless every entry of g holds its mirror's bits.
func assertSymmetric(t *testing.T, what string, g *CSR) {
	t.Helper()
	for r := 0; r < g.Rows; r++ {
		for e := g.RowPtr[r]; e < g.RowPtr[r+1]; e++ {
			if v, m := g.Val[e], g.At(g.ColIdx[e], r); math.Float64bits(v) != math.Float64bits(m) {
				t.Fatalf("%s: G(%d,%d) = %v, G(%d,%d) = %v", what, r, g.ColIdx[e], v, g.ColIdx[e], r, m)
			}
		}
	}
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
// An ordered plan's accumulators are its natural plan's.
func assertAccumulatorsZero(t *testing.T, what string, gp *GainPlan) {
	t.Helper()
	if gp.nat != nil {
		gp = gp.nat
	}
	for part, acc := range gp.acc {
		for j, v := range acc {
			if v != 0 {
				t.Fatalf("%s: accumulator %d holds %v at column %d after the refresh", what, part, v, j)
			}
		}
	}
}

// TestGainRefreshReplaysOldOrder: reading row r of G's lower triangle off
// column r of H sums every entry's products in the order the scatter map
// listed them, so that triangle and the diagonal are what they were bit for
// bit, and the upper triangle is their mirror — on ragged H (empty rows, a
// column alone, an untouched column), in natural order and under a random
// permutation, and on a second refresh with new values and weights.
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
				want := replayGain(h, w, g)
				if perm != nil {
					want = replayOrdered(h, w, perm)
				}
				assertBitEqual(t, "ragged H", g.Val, want)
				assertSymmetric(t, "ragged H", g)
				assertAccumulatorsZero(t, "ragged H", gp)
			}
		}
	}
}

// TestGainRefreshPooledReplaysOldOrder: the same equality on an H large
// enough for the pooled path, for 1, 2, 3 and 8 workers, scalar and blocked,
// twice in a row with different values. A worker's rows do not change what an
// entry sums, the mirror runs after the join, and each worker leaves its own
// accumulator zero. Run under -race this is also the check that workers
// share nothing they write.
func TestGainRefreshPooledReplaysOldOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, cols = 600, 90
	h := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for m := 0; m < rows; m++ {
		if m%17 != 0 { // every 17th row is empty
			row := rng.Perm(cols)[:4+rng.Intn(8)]
			slices.Sort(row)
			h.ColIdx = append(h.ColIdx, row...)
		}
		h.RowPtr[m+1] = len(h.ColIdx)
	}
	h.Val = make([]float64, len(h.ColIdx))
	perm := rng.Perm(cols)
	// Two sets of values and weights, replayed once each.
	var vals, weights, wants [2][]float64
	for pass := range vals {
		vals[pass] = make([]float64, len(h.ColIdx))
		for k := range vals[pass] {
			vals[pass][k] = rng.NormFloat64()
		}
		weights[pass] = randomWeights(rng, rows)
		h.Val = vals[pass]
		wants[pass] = replayOrdered(h, weights[pass], perm)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		pool := NewPool(workers)
		gp := NewGainPlanOrdered(h, perm)
		if work := gp.nat.rowWork[cols]; work < parallelNNZThreshold {
			t.Fatalf("fixture sums %d products, below the pooled threshold %d", work, parallelNNZThreshold)
		}
		for pass, want := range wants {
			h.Val = vals[pass]
			what := fmt.Sprintf("RefreshPool, %d workers, pass %d", workers, pass)
			assertBitEqual(t, what, gp.RefreshPool(h, weights[pass], pool).Val, want)
			assertAccumulatorsZero(t, what, gp)
			if len(gp.nat.acc) != workers {
				t.Fatalf("%s: %d accumulators, want one per worker", what, len(gp.nat.acc))
			}

			what = fmt.Sprintf("RefreshPoolBSR, %d workers, pass %d", workers, pass)
			clear(gp.G.Val) // the blocked refresh must not lean on the scalar one
			blocked := gp.RefreshPoolBSR(h, weights[pass], pool)
			got := make([]float64, len(want))
			for r := 0; r < cols; r++ {
				for e := gp.G.RowPtr[r]; e < gp.G.RowPtr[r+1]; e++ {
					got[e] = blocked.At(r, gp.G.ColIdx[e])
				}
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

// TestGainPlanRefusesNonCanonicalRows: a row of H whose columns do not
// strictly increase — unsorted, or listing one column twice — is refused at
// build by name, since the refresh reads each row's lower products as a
// prefix of it.
func TestGainPlanRefusesNonCanonicalRows(t *testing.T) {
	for name, cols := range map[string][]int{"unsorted": {0, 3, 2}, "repeated": {1, 2, 2}} {
		h := &CSR{Rows: 2, Cols: 4, RowPtr: []int{0, 1, 4}, ColIdx: append([]int{1}, cols...), Val: make([]float64, 4)}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "row 1 of H") || !strings.Contains(msg, "strictly increasing") {
					t.Fatalf("%s: panic %q does not name the row and the rule", name, msg)
				}
			}()
			NewGainPlan(h)
			t.Fatalf("%s: a plan was built on a non-canonical row", name)
		}()
	}
}

// TestGainPlanOnRefusesAnotherShape: NewGainPlanOn checks what it can of
// the pattern it is handed without walking H — its shape, and that its
// empty rows are H's empty columns — and refuses a pattern that fails by
// name. On the right pattern it takes g as its G.
func TestGainPlanOnRefusesAnotherShape(t *testing.T) {
	// Column 2 of h is empty, so row 2 of G is.
	h := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 3}, ColIdx: []int{0, 1, 1}, Val: make([]float64, 3)}
	g := walkGainPattern(h)
	if gp := NewGainPlanOn(h, g); gp.G != g || gp.EmptyRow() != 2 {
		t.Fatalf("the plan's G is %p, EmptyRow %d; want g (%p) and 2", gp.G, gp.EmptyRow(), g)
	}
	for name, c := range map[string]struct {
		g    *CSR
		want string
	}{
		"too small":      {&CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 1}}, "2x2 pattern"},
		"short ColIdx":   {&CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 4}, ColIdx: []int{0, 1, 0}}, "of 3 entries"},
		"row 2 nonempty": {&CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 5}, ColIdx: []int{0, 1, 0, 1, 2}}, "row 2 of the pattern has 1 entries"},
		"row 1 empty":    {&CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 1, 1, 1}, ColIdx: []int{0}}, "row 1 of the pattern has 0 entries"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "NewGainPlanOn") || !strings.Contains(msg, c.want) {
					t.Fatalf("%s: panic %q, want one naming %q", name, msg, c.want)
				}
			}()
			NewGainPlanOn(h, c.g)
			t.Fatalf("%s: a plan was built on a pattern of another shape", name)
		}()
	}
}

// FuzzGainPlan turns bytes into a canonical H — two bytes a row, a bitmask
// over at most 16 columns, so rows come out empty, alone in a column or
// full — with random values and weights and a random permutation. The
// plan's pattern, work prefix and empty row must be the sorted build's
// (sortedGainPattern); the natural plan's G must be the replay oracle's bit
// for bit, its lower triangle summed and its upper mirrored, and bitwise
// symmetric; the ordered plan's G must be PermuteSym of it bit for bit; and
// NewGainPlanOn on the walked pattern must build NewGainPlan's plan field for
// field. With mode odd one row with two entries or more is made
// non-canonical, its first two columns swapped or repeated, and both
// builders must refuse it by name and panic with nothing else.
func FuzzGainPlan(f *testing.F) {
	f.Add(uint8(4), uint8(0), int64(1), []byte{3, 0, 5, 0, 0, 0, 12, 0})
	f.Add(uint8(16), uint8(1), int64(2), []byte{255, 255, 1, 128, 0, 0, 7, 1, 64, 32})
	f.Add(uint8(9), uint8(3), int64(3), []byte("rows of a measurement Jacobian"))
	f.Fuzz(func(t *testing.T, cols, mode uint8, seed int64, data []byte) {
		n := 1 + int(cols)%16
		h := &CSR{Rows: len(data) / 2, Cols: n, RowPtr: make([]int, len(data)/2+1)}
		for m := 0; m < h.Rows; m++ {
			mask := int(data[2*m]) | int(data[2*m+1])<<8
			for c := 0; c < n; c++ {
				if mask>>c&1 == 1 {
					h.ColIdx = append(h.ColIdx, c)
				}
			}
			h.RowPtr[m+1] = len(h.ColIdx)
		}
		rng := rand.New(rand.NewSource(seed))
		h.Val = make([]float64, len(h.ColIdx))
		for k := range h.Val {
			h.Val[k] = rng.NormFloat64()
		}
		w, perm := randomWeights(rng, h.Rows), rng.Perm(n)

		if mode%2 == 1 {
			m := 0
			for m < h.Rows && h.RowNNZ(m) < 2 {
				m++
			}
			if m == h.Rows {
				return
			}
			p := h.RowPtr[m]
			if mode%4 == 1 {
				h.ColIdx[p], h.ColIdx[p+1] = h.ColIdx[p+1], h.ColIdx[p]
			} else {
				h.ColIdx[p+1] = h.ColIdx[p]
			}
			for name, build := range map[string]func(){
				"NewGainPlanOrdered": func() { NewGainPlanOrdered(h, perm) },
				"NewGainPlanOn":      func() { NewGainPlanOn(h, &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}) },
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, fmt.Sprintf("row %d of H", m)) || !strings.Contains(msg, "strictly increasing") {
							t.Fatalf("%s: panic %q, want the refusal of row %d", name, msg, m)
						}
					}()
					build()
					t.Fatalf("%s built a plan on non-canonical row %d", name, m)
				}()
			}
			return
		}

		if msg := gainPatternMismatch(h); msg != "" {
			t.Fatal(msg)
		}
		if on, walked := NewGainPlanOn(h, walkGainPattern(h)), NewGainPlan(h); !reflect.DeepEqual(on, walked) {
			t.Fatal("the plan built on the walked pattern is not NewGainPlan's field for field")
		}
		g := NewGainPlan(h).Refresh(h, w)
		assertBitEqual(t, "natural plan", g.Val, replayGain(h, w, g))
		assertSymmetric(t, "natural plan", g)
		want := PermuteSym(g, perm)
		got := NewGainPlanOrdered(h, perm).Refresh(h, w)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatal("the ordered plan's pattern is not PermuteSym's")
		}
		assertBitEqual(t, "ordered plan", got.Val, want.Val)
	})
}

// TestGainPlanPatternDriftPanics: a refresh with an H of another pattern
// panics by name, also when only one column moved and the row count and nnz
// still match; an H of the same pattern in arrays of its own refreshes.
func TestGainPlanPatternDriftPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := randomCSR(rng, 20, 10, 60)
	gp := NewGainPlan(h)
	gp.Refresh(h.Clone(), randomWeights(rng, 20))

	moved := h.Clone()
	for m := 0; m < moved.Rows; m++ {
		// The last entry of a row below the last column moves there, which
		// keeps the row canonical.
		if last := moved.RowPtr[m+1] - 1; last >= moved.RowPtr[m] && moved.ColIdx[last] < moved.Cols-1 {
			moved.ColIdx[last] = moved.Cols - 1
			break
		}
	}
	for name, other := range map[string]*CSR{"another shape": randomCSR(rng, 21, 10, 60), "one column moved": moved} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "changed H pattern") {
					t.Fatalf("%s: panic %q, want one naming the changed pattern", name, msg)
				}
			}()
			gp.Refresh(other, randomWeights(rng, other.Rows))
			t.Fatalf("%s: the refresh did not panic", name)
		}()
	}
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

// TestMulVecRangesMatchesSerial: the pooled mat-vec CG runs, over the
// cached row partition, is the serial kernel's bit for bit.
func TestMulVecRangesMatchesSerial(t *testing.T) {
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
	bounds := make([]int, p.Workers()+1)
	a.partitionRows(bounds, p.Workers())
	got := make([]float64, a.Rows)
	a.mulVecRanges(got, x, p, bounds)
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

// sortedGainPattern is the gain plan's pattern as the plan once built it, the
// oracle of the sort-free build: one stamped walk per row of G over every
// full row of H that its column reaches, then a sort of the row. It returns
// G's row pointers and columns, the work prefix and the first empty row.
func sortedGainPattern(h *CSR) (rowPtr, colIdx, rowWork []int, emptyRow int) {
	n := h.Cols
	emptyRow = -1
	colPtr := make([]int, n+1)
	for _, r := range h.ColIdx {
		colPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		if colPtr[r+1] == 0 && emptyRow < 0 {
			emptyRow = r
		}
		colPtr[r+1] += colPtr[r]
	}
	colVal, colRow := make([]int, h.NNZ()), make([]int, h.NNZ())
	next := slices.Clone(colPtr[:n])
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
			k := next[h.ColIdx[p]]
			next[h.ColIdx[p]]++
			colVal[k], colRow[k] = p, m
		}
	}
	rowPtr, rowWork = make([]int, n+1), make([]int, n+1)
	seen := make([]int, n)
	for r := 0; r < n; r++ {
		work := 0
		for k := colPtr[r]; k < colPtr[r+1]; k++ {
			m := colRow[k]
			for _, j := range h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]] {
				if seen[j] != r+1 {
					seen[j] = r + 1
					colIdx = append(colIdx, j)
				}
			}
			work += colVal[k] - h.RowPtr[m] + 1
		}
		slices.Sort(colIdx[rowPtr[r]:])
		rowPtr[r+1], rowWork[r+1] = len(colIdx), rowWork[r]+work
	}
	return rowPtr, colIdx, rowWork, emptyRow
}

// walkGainPattern is G's pattern as NewGainPlan walks it off h, in arrays
// of its own.
func walkGainPattern(h *CSR) *CSR { return newGainColumns(h, "walkGainPattern").walk() }

// gainPatternMismatch names the first array in which the plan NewGainPlan
// builds on h differs from sortedGainPattern's, or returns "".
func gainPatternMismatch(h *CSR) string {
	gp := NewGainPlan(h)
	rowPtr, colIdx, rowWork, emptyRow := sortedGainPattern(h)
	for _, c := range []struct {
		name      string
		got, want []int
	}{{"RowPtr", gp.G.RowPtr, rowPtr}, {"ColIdx", gp.G.ColIdx, colIdx}, {"rowWork", gp.rowWork, rowWork}} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s has %d entries, sorted build %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				return fmt.Sprintf("%s[%d] = %d, sorted build %d", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	switch {
	case gp.EmptyRow() != emptyRow:
		return fmt.Sprintf("EmptyRow %d, sorted build %d", gp.EmptyRow(), emptyRow)
	case len(gp.G.Val) != len(colIdx):
		return fmt.Sprintf("%d values for %d entries", len(gp.G.Val), len(colIdx))
	}
	return ""
}

// TestGainPlanPatternMatchesSortedBuild: the sort-free build lays out G, the
// work prefix and the empty row exactly as the sorted build did, on H with
// an empty column, a column no other column shares a row with, rows of one
// entry, empty rows, a dense row, and on ragged random H.
func TestGainPlanPatternMatchesSortedBuild(t *testing.T) {
	csr := func(cols int, rows ...[]int) *CSR {
		h := &CSR{Rows: len(rows), Cols: cols, RowPtr: make([]int, len(rows)+1)}
		for m, row := range rows {
			h.ColIdx = append(h.ColIdx, row...)
			h.RowPtr[m+1] = len(h.ColIdx)
		}
		h.Val = make([]float64, len(h.ColIdx))
		return h
	}
	cases := map[string]*CSR{
		"empty column":      csr(5, []int{0, 1}, []int{1, 4}, []int{0, 3, 4}),
		"lone column":       csr(5, []int{0, 1, 3}, []int{2}, []int{2}, []int{1, 4}),
		"single entries":    csr(4, []int{3}, []int{0}, []int{2}, []int{1}, []int{3}),
		"empty rows":        csr(4, nil, []int{0, 2}, nil, []int{1, 2, 3}, nil),
		"dense row":         csr(6, []int{0, 1, 2, 3, 4, 5}, []int{2, 5}),
		"no rows":           csr(3),
		"repeated patterns": csr(5, []int{1, 3}, []int{1, 3}, []int{0, 1, 4}, []int{0, 1, 4}, []int{2}),
	}
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		cases[fmt.Sprintf("ragged %d", trial)] = raggedCSR(rng, 5+rng.Intn(60), 3+rng.Intn(30))
	}
	for name, h := range cases {
		if msg := gainPatternMismatch(h); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}
