package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSharePatternSharesIndexArrays: a cloned gain plan and a cloned factor
// own values and scratch only — every index array is the original's, the
// same backing array — and refreshed on the same values they hold, bit for
// bit, what the original holds.
func TestSharePatternSharesIndexArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := raggedCSR(rng, 90, 40)
	// Every column touched, so G has its diagonal and factors.
	coo := NewCOO(h.Rows+h.Cols, h.Cols)
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
			coo.Add(m, h.ColIdx[p], h.Val[p])
		}
	}
	for c := 0; c < h.Cols; c++ {
		coo.Add(h.Rows+c, c, 1+rng.Float64())
	}
	h = coo.ToCSR()
	w := randomWeights(rng, h.Rows)

	gp := NewGainPlan(h)
	gc := gp.SharePattern()
	sameInts := func(what string, a, b []int) {
		t.Helper()
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Fatalf("%s: the clone has an array of its own", what)
		}
	}
	same32 := func(what string, a, b []int32) {
		t.Helper()
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Fatalf("%s: the clone has an array of its own", what)
		}
	}
	sameInts("G.RowPtr", gc.G.RowPtr, gp.G.RowPtr)
	sameInts("G.ColIdx", gc.G.ColIdx, gp.G.ColIdx)
	sameInts("colPtr", gc.colPtr, gp.colPtr)
	sameInts("rowWork", gc.rowWork, gp.rowWork)
	same32("colVal", gc.colVal, gp.colVal)
	same32("colRow", gc.colRow, gp.colRow)
	if &gc.G.Val[0] == &gp.G.Val[0] || &gc.acc[0][0] == &gp.acc[0][0] {
		t.Fatal("the cloned plan shares values or accumulators")
	}
	gp.Refresh(h, w)
	gc.RefreshPool(h, w, DefaultPool())
	assertBitEqual(t, "cloned plan's G", gc.G.Val, gp.G.Val)
	assertAccumulatorsZero(t, "cloned plan", gc)
	if gc.EmptyRow() != gp.EmptyRow() {
		t.Fatalf("EmptyRow %d, original %d", gc.EmptyRow(), gp.EmptyRow())
	}

	f, err := AnalyzeLDL(gp.G)
	if err != nil {
		t.Fatal(err)
	}
	fc := f.SharePattern()
	for what, pair := range map[string][2][]int{
		"perm": {fc.perm, f.perm}, "rowPtr": {fc.rowPtr, f.rowPtr}, "colIdx": {fc.colIdx, f.colIdx},
		"upPtr": {fc.upPtr, f.upPtr}, "diagSrc": {fc.diagSrc, f.diagSrc},
		"parent": {fc.parent, f.parent}, "lPtr": {fc.lPtr, f.lPtr},
	} {
		sameInts(what, pair[0], pair[1])
	}
	same32("lRow", fc.lRow, f.lRow)
	same32("upRow", fc.upRow, f.upRow)
	same32("upSrc", fc.upSrc, f.upSrc)
	sameInts("the analyzed matrix's ColIdx", f.colIdx, gp.G.ColIdx)
	if &fc.lVal[0] == &f.lVal[0] || &fc.d[0] == &f.d[0] || &fc.y[0] == &f.y[0] || &fc.flag[0] == &f.flag[0] {
		t.Fatal("the cloned factor shares values or scratch")
	}
	// The clone factors the clone's G, which shares the analyzed pattern.
	if err := f.Refresh(gp.G); err != nil {
		t.Fatal(err)
	}
	if err := fc.Refresh(gc.G); err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, "cloned factor's L", fc.lVal, f.lVal)
	assertBitEqual(t, "cloned factor's D", fc.d, f.d)
	b := make([]float64, h.Cols)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, xc := make([]float64, h.Cols), make([]float64, h.Cols)
	f.Apply(x, b)
	fc.Apply(xc, b)
	assertBitEqual(t, "cloned factor's solve", xc, x)
}

// TestSharePatternConcurrentRefresh: clones of one plan and one factor
// refresh and solve at once, on values of their own, each landing on what a
// plan and a factor built alone for those values compute. Run under -race,
// this is the check that nothing shared is written.
func TestSharePatternConcurrentRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g0 := gainFixture(rng, 80, 120)
	base, err := AnalyzeLDL(g0)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 6
	mats := make([]*CSR, clones)
	for k := range mats {
		mats[k] = g0.SharePattern()
		s := 1 + float64(k)/4
		for i, v := range g0.Val {
			mats[k].Val[i] = s * v
		}
	}
	got := make([][]float64, clones)
	b := make([]float64, g0.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var wg sync.WaitGroup
	for k := range mats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			f := base.SharePattern()
			for rep := 0; rep < 3; rep++ {
				if err := f.Refresh(mats[k]); err != nil {
					t.Errorf("clone %d: %v", k, err)
					return
				}
			}
			got[k] = make([]float64, len(b))
			f.Apply(got[k], b)
		}(k)
	}
	wg.Wait()
	for k, a := range mats {
		alone, err := NewLDL(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(b))
		alone.Apply(want, b)
		assertBitEqual(t, "concurrent clone's solve", got[k], want)
	}
}
