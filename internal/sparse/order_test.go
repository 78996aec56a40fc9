package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// pathMatrix builds the pattern of a 1-D chain renumbered by the given
// vertex order — worst case for bandwidth when the order interleaves ends.
func pathMatrix(order []int) *CSR {
	n := len(order)
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	for k := 0; k+1 < len(order); k++ {
		u, v := order[k], order[k+1]
		coo.Add(u, v, -1)
		coo.Add(v, u, -1)
	}
	return coo.ToCSR()
}

func assertPerm(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d != %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
}

func TestMinDegreeValidAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 60)
	perm := MinDegree(a)
	assertPerm(t, perm, a.Rows)
	again := MinDegree(a)
	for i := range perm {
		if perm[i] != again[i] {
			t.Fatal("MinDegree is not deterministic")
		}
	}
}

// minDegreeReference is the explicit elimination-graph ordering MinDegree
// replaced, kept as its oracle: adjacency sets, a linear scan for the
// minimum (degree, index), clique formation over the sorted neighborhood.
func minDegreeReference(a *CSR) []int {
	n := a.Rows
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]struct{}, a.RowNNZ(i))
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; i != j {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}
	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	nbrs := make([]int, 0, n)
	for len(perm) < n {
		v := -1
		for u := 0; u < n; u++ {
			if !eliminated[u] && (v < 0 || len(adj[u]) < len(adj[v])) {
				v = u
			}
		}
		perm = append(perm, v)
		eliminated[v] = true
		nbrs = nbrs[:0]
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		sort.Ints(nbrs)
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		for i, u := range nbrs {
			for _, w := range nbrs[i+1:] {
				adj[u][w] = struct{}{}
				adj[w][u] = struct{}{}
			}
		}
		adj[v] = nil
	}
	return perm
}

// TestMinDegreeMatchesReference pins the heap-and-slices MinDegree to the
// permutation the map-based one produced, entry for entry.
func TestMinDegreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	twoTriangles := NewCOO(7, 7)
	for i := 0; i < 7; i++ {
		twoTriangles.Add(i, i, 1)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		twoTriangles.Add(e[0], e[1], -1)
		twoTriangles.Add(e[1], e[0], -1)
	}
	// One-sided pattern: MinDegree symmetrizes what it is given.
	oneSided := NewCOO(5, 5)
	for _, e := range [][2]int{{0, 4}, {1, 4}, {2, 3}, {3, 0}} {
		oneSided.Add(e[0], e[1], 1)
	}
	cases := map[string]*CSR{
		"spd-60":        randomSPD(rng, 60),
		"spd-120":       randomSPD(rng, 120),
		"gain-200":      gainFixture(rng, 200, 260),
		"path":          pathMatrix(rng.Perm(40)),
		"mesh":          meshMatrix(17, 11),
		"two-triangles": twoTriangles.ToCSR(),
		"one-sided":     oneSided.ToCSR(),
		"empty":         NewCOO(0, 0).ToCSR(),
	}
	for name, a := range cases {
		got, want := MinDegree(a), minDegreeReference(a)
		assertPerm(t, got, a.Rows)
		if !slices.Equal(got, want) {
			t.Errorf("%s: MinDegree = %v, reference %v", name, got, want)
		}
	}
}

func TestInversePerm(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InversePerm(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("inv[perm[%d]] = %d", i, inv[p])
		}
	}
}

func TestPermuteSymValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 25)
	perm := MinDegree(a)
	pa := PermuteSym(a, perm)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if pa.At(i, j) != a.At(perm[i], perm[j]) {
				t.Fatalf("PermuteSym(%d,%d) = %g, want A(perm) = %g",
					i, j, pa.At(i, j), a.At(perm[i], perm[j]))
			}
		}
	}
}

// TestGainPlanOrderedMatchesPermutedGain: the ordered plan must assemble
// exactly P·(HᵀWH)·Pᵀ (up to contribution-summation rounding — the entry
// sums run in permuted-row order).
func TestGainPlanOrderedMatchesPermutedGain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randomCSR(rng, 60, 30, 150)
	w := randomWeights(rng, 60)
	g := Gain(h, w)
	perm := MinDegree(g)
	want := PermuteSym(g, perm)
	got := NewGainPlanOrdered(h, perm).Refresh(h, w)
	if got.Rows != want.Rows || got.NNZ() != want.NNZ() {
		t.Fatalf("ordered plan shape/nnz mismatch: %v vs %v", got, want)
	}
	for i := 0; i < got.Rows; i++ {
		for k := got.RowPtr[i]; k < got.RowPtr[i+1]; k++ {
			if got.ColIdx[k] != want.ColIdx[k] {
				t.Fatalf("pattern mismatch in row %d", i)
			}
			if d := math.Abs(got.Val[k] - want.Val[k]); d > 1e-12*(1+math.Abs(want.Val[k])) {
				t.Fatalf("value mismatch at (%d,%d): %g vs %g", i, got.ColIdx[k], got.Val[k], want.Val[k])
			}
		}
	}
}

// TestCGPermutedMatchesNatural solves the same SPD system in natural and
// permuted space: b, X0, and X stay in original order at the CG
// boundary, so the solutions must agree to solver precision.
func TestCGPermutedMatchesNatural(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomSPD(rng, 80)
	b := make([]float64, 80)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	natural, err := CG(a, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("natural: %v", err)
	}
	perm := MinDegree(a)
	pa := PermuteSym(a, perm)
	pre, err := NewIC0(pa)
	if err != nil {
		t.Fatalf("IC0 on permuted matrix: %v", err)
	}
	permuted, err := CG(pa, b, CGOptions{Tol: 1e-12, Precond: pre, Perm: perm})
	if err != nil {
		t.Fatalf("permuted: %v", err)
	}
	for i := range natural.X {
		if d := math.Abs(permuted.X[i] - natural.X[i]); d > 1e-8 {
			t.Fatalf("x[%d]: permuted %g natural %g", i, permuted.X[i], natural.X[i])
		}
	}
	if !permuted.Converged {
		t.Fatal("permuted solve did not converge")
	}
}

// TestCGPermutedWarmStart: the warm start is supplied in original order and
// must survive the round trip — a perfect guess converges in 0 iterations.
func TestCGPermutedWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randomSPD(rng, 50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	exact, err := CG(a, b, CGOptions{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	x0 := append([]float64(nil), exact.X...)
	perm := MinDegree(a)
	res, err := CG(PermuteSym(a, perm), b, CGOptions{Tol: 1e-10, Perm: perm, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("exact warm start took %d iterations", res.Iterations)
	}
	for i := range exact.X {
		if math.Abs(res.X[i]-exact.X[i]) > 1e-9 {
			t.Fatalf("warm-started solution drifted at %d", i)
		}
	}
}

// TestCGPermutedZeroB: the all-zero rhs early exit must still return the
// solution in original order (work.X, not the permuted iterate).
func TestCGPermutedZeroB(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomSPD(rng, 20)
	perm := MinDegree(a)
	res, err := CG(PermuteSym(a, perm), make([]float64, 20), CGOptions{Perm: perm})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero rhs must converge immediately")
	}
	for i, v := range res.X {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

// TestCGPermutedZeroAlloc pins the boundary permutes as workspace-backed:
// repeated permuted solves on one workspace allocate nothing.
func TestCGPermutedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomSPD(rng, 60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	perm := MinDegree(a)
	pa := PermuteSym(a, perm)
	pre, err := NewIC0(pa)
	if err != nil {
		t.Fatal(err)
	}
	work := NewCGWorkspace(60)
	opts := CGOptions{Tol: 1e-10, Precond: pre, Workers: 1, Work: work, Perm: perm}
	if _, err := CG(pa, b, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := CG(pa, b, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("permuted CG allocated %v times per solve, want 0", allocs)
	}
}
