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

// minDegreeReference is the scalar elimination MinDegree replaced, kept as
// its oracle: one vertex at a time on an explicit elimination graph —
// adjacency sets, a linear scan for the minimum (degree, index), clique
// formation over the sorted neighborhood. No supervariables.
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

// TestMinDegreeMatchesReference pins MinDegree to the permutation of the
// scalar elimination, entry for entry: a supervariable is keyed by the degree
// its members have in the uncompressed graph, so on these patterns — twins
// in gain-200 and two-triangles included — compression changes nothing.
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
	opts := CGOptions{Tol: 1e-10, Precond: pre, Work: work, Perm: perm}
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

// fillOf plays the elimination game on the symmetrized pattern of a in the
// order perm and returns the number of off-diagonal entries of L it leaves —
// LDLFactor.FactorNNZ for that ordering, computed without the factor's code.
func fillOf(a *CSR, perm []int) int {
	n := a.Rows
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = map[int]struct{}{}
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; i != j {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}
	fill := 0
	for _, v := range perm {
		fill += len(adj[v])
		for u := range adj[v] {
			delete(adj[u], v)
			for w := range adj[v] {
				if w != u {
					adj[u][w] = struct{}{}
				}
			}
		}
		adj[v] = nil
	}
	return fill
}

// shuffleRows returns a copy of a with the entries of every row in random
// order: the same matrix, stored as CSR does not promise to store it.
func shuffleRows(rng *rand.Rand, a *CSR) *CSR {
	b := a.Clone()
	for i := 0; i < b.Rows; i++ {
		lo, n := b.RowPtr[i], b.RowNNZ(i)
		rng.Shuffle(n, func(x, y int) {
			b.ColIdx[lo+x], b.ColIdx[lo+y] = b.ColIdx[lo+y], b.ColIdx[lo+x]
			b.Val[lo+x], b.Val[lo+y] = b.Val[lo+y], b.Val[lo+x]
		})
	}
	return b
}

// patternOf builds the symmetric pattern with the given edges and a full
// diagonal.
func patternOf(n int, edges [][2]int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for _, e := range edges {
		if e[0] != e[1] {
			coo.Add(e[0], e[1], 1)
			coo.Add(e[1], e[0], 1)
		}
	}
	return coo.ToCSR()
}

// repeatEntry returns a copy of the symmetric pattern a, whose rows ascend,
// with its k-th off-diagonal entry (i, j) above the diagonal, counted mod
// their number, stored twice in row i and (j, i) twice in row j, each copy
// beside the original. The rows still ascend, though not strictly, and
// still match each other entry for entry, so only the strict order tells
// the ordering to read the closure instead. a without an off-diagonal entry
// is returned as it is.
func repeatEntry(a *CSR, k int) *CSR {
	rows := make([][]int, a.Rows)
	var upper [][2]int
	for r := range rows {
		rows[r] = slices.Clone(a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]])
		for _, c := range rows[r] {
			if c > r {
				upper = append(upper, [2]int{r, c})
			}
		}
	}
	if len(upper) == 0 {
		return a
	}
	e := upper[k%len(upper)]
	for _, rc := range [][2]int{e, {e[1], e[0]}} {
		r := rows[rc[0]]
		rows[rc[0]] = slices.Insert(r, slices.Index(r, rc[1]), rc[1])
	}
	b := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, 1, a.Rows+1)}
	for _, r := range rows {
		b.ColIdx = append(b.ColIdx, r...)
		b.RowPtr = append(b.RowPtr, len(b.ColIdx))
	}
	b.Val = make([]float64, len(b.ColIdx))
	return b
}

// TestOrderingReadsRepeatedEntriesAsTheClosure: a symmetric pattern that
// stores one entry twice in both its rows passes the check that rows match
// each other; only their strict order sends it to the closure, whose
// ordering MinDegree and AnalyzeLDL must return. Counted as it stands, the
// repeated entry lifts two degrees: on a path, an end's to an inner
// vertex's, so the elimination would start from the other end.
func TestOrderingReadsRepeatedEntriesAsTheClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name string
		a    *CSR
	}{
		{"path", patternOf(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})},
		{"random-gain", gainFixture(rng, 60, 80)},
	} {
		want := MinDegree(c.a)
		fill := fillOf(c.a, minDegreeReference(c.a))
		clean, err := AnalyzeLDL(c.a)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			dup := repeatEntry(c.a, k)
			if len(dup.ColIdx) != len(c.a.ColIdx)+2 {
				t.Fatalf("%s: no entry repeated", c.name)
			}
			perm := MinDegree(dup)
			if !slices.Equal(perm, want) {
				t.Errorf("%s, entry %d repeated: ordering %v, the closure's %v", c.name, k, perm, want)
			}
			if got := fillOf(c.a, perm); got != fill {
				t.Errorf("%s, entry %d repeated: fill %d, the closure's %d", c.name, k, got, fill)
			}
			f, err := AnalyzeLDL(dup)
			if err != nil {
				t.Fatalf("%s, entry %d repeated: %v", c.name, k, err)
			}
			if !slices.Equal(f.perm, clean.perm) || f.FactorNNZ() != clean.FactorNNZ() {
				t.Errorf("%s, entry %d repeated: analysis orders %v with %d fill entries, the closure's %v with %d",
					c.name, k, f.perm, f.FactorNNZ(), clean.perm, clean.FactorNNZ())
			}
		}
	}
}

// twinClasses groups the vertices of a's symmetrized pattern by closed
// neighborhood, by brute force: class[v] is the lowest vertex u with
// N[u] = N[v].
func twinClasses(a *CSR) []int {
	n := a.Rows
	closed := make([][]bool, n)
	for i := range closed {
		closed[i] = make([]bool, n)
		closed[i][i] = true
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			closed[i][a.ColIdx[k]], closed[a.ColIdx[k]][i] = true, true
		}
	}
	class := make([]int, n)
	for v := range class {
		class[v] = v
		for u := 0; u < v; u++ {
			if slices.Equal(closed[u], closed[v]) {
				class[v] = u
				break
			}
		}
	}
	return class
}

// assertSupervariableOrder checks what MinDegree promises of its output
// beyond being a permutation: the vertices of one closed neighborhood sit
// next to each other, in index order.
func assertSupervariableOrder(t *testing.T, name string, a *CSR, perm []int) (twins int) {
	t.Helper()
	assertPerm(t, perm, a.Rows)
	class := twinClasses(a)
	done := make([]bool, a.Rows) // done[c]: class c's run has ended
	for k, v := range perm {
		c := class[v]
		if done[c] {
			t.Fatalf("%s: vertex %d at position %d is apart from the rest of its supervariable %d: %v", name, v, k, c, perm)
		}
		if k > 0 && class[perm[k-1]] == c {
			twins++
			if perm[k-1] > v {
				t.Fatalf("%s: supervariable %d is not in index order: %v", name, c, perm)
			}
		} else if k > 0 {
			done[class[perm[k-1]]] = true
		}
	}
	return twins
}

// TestMinDegreeSupervariables: on patterns with no twins, some, and nothing
// but, MinDegree returns a permutation that keeps every supervariable
// together and leaves exactly the fill of the scalar elimination; it returns
// the same permutation twice, and from a copy of the matrix whose rows store
// their entries in another order.
func TestMinDegreeSupervariables(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// Every vertex of a random graph doubled: (2v, 2v+1) is a twin pair, the
	// block structure of a gain matrix with each bus's θ and V interleaved.
	doubled := func(n, m int) *CSR {
		var edges [][2]int
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{2 * v, 2*v + 1})
		}
		for ; m > 0; m-- {
			u, v := rng.Intn(n), rng.Intn(n)
			for _, e := range [][2]int{{2 * u, 2 * v}, {2 * u, 2*v + 1}, {2*u + 1, 2 * v}, {2*u + 1, 2*v + 1}} {
				if u != v {
					edges = append(edges, e)
				}
			}
		}
		return patternOf(2*n, edges)
	}
	cases := []struct {
		name     string
		a        *CSR
		minTwins int // twin adjacencies the pattern is built to have; -1: exactly none
	}{
		{"random-spd", randomSPD(rng, 90), 0},
		{"random-gain", gainFixture(rng, 150, 200), 0},
		{"mesh-no-twins", meshMatrix(9, 7), -1},
		{"all-twins", doubled(40, 70), 40},
		{"block-diagonal-2x2", doubled(12, 0), 12},
		{"clique", doubled(3, 30), 5},
		{"isolated-vertex", patternOf(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {4, 5}}), 3},
		{"star", patternOf(7, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}}), -1},
		{"n=1", patternOf(1, nil), -1},
		{"n=0", patternOf(0, nil), -1},
	}
	for _, c := range cases {
		perm := MinDegree(c.a)
		twins := assertSupervariableOrder(t, c.name, c.a, perm)
		if c.minTwins < 0 && twins != 0 || twins < c.minTwins {
			t.Errorf("%s: %d twin adjacencies in the ordering, fixture promises %d (-1: none)", c.name, twins, c.minTwins)
		}
		if got, want := fillOf(c.a, perm), fillOf(c.a, minDegreeReference(c.a)); got != want {
			t.Errorf("%s: fill %d, scalar elimination leaves %d", c.name, got, want)
		}
		if again := MinDegree(c.a); !slices.Equal(again, perm) {
			t.Errorf("%s: a second run returned another permutation", c.name)
		}
		if shuffled := MinDegree(shuffleRows(rng, c.a)); !slices.Equal(shuffled, perm) {
			t.Errorf("%s: a row-shuffled copy of the matrix is ordered differently:\n%v\n%v", c.name, shuffled, perm)
		}
	}
}

// FuzzMinDegree turns bytes into a small symmetric pattern — pairs of bytes
// are edges, a third byte in three copies an edge's end onto a twin, and an
// odd byte out repeats an entry in both its rows (repeatEntry) — and checks
// the ordering is a permutation that keeps supervariables together, fills
// exactly as the scalar elimination does and is the closure's.
func FuzzMinDegree(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0})
	f.Add(uint8(7), []byte{0, 1, 1, 2, 0, 2, 3, 4, 4, 5, 3, 5})
	f.Add(uint8(12), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 11, 3, 9, 1, 1})
	f.Add(uint8(40), []byte("a gain matrix is a two-hop graph of the network"))
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 0})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := int(size) % 48
		var edges [][2]int
		for k := 0; n > 0 && k+1 < len(data); k += 2 {
			u, v := int(data[k])%n, int(data[k+1])%n
			edges = append(edges, [2]int{u, v})
			if data[k]%3 == 0 { // v+1 joins whatever v joins, and v
				w := (v + 1) % n
				edges = append(edges, [2]int{u, w}, [2]int{v, w})
			}
		}
		a := patternOf(n, edges)
		closed := MinDegree(a)
		if len(data)%2 == 1 {
			a = repeatEntry(a, int(data[len(data)-1]))
		}
		perm := MinDegree(a)
		if !slices.Equal(perm, closed) {
			t.Fatalf("ordering %v, the closure's %v (n=%d, edges %v)", perm, closed, n, edges)
		}
		assertSupervariableOrder(t, "fuzz", a, perm)
		if got, ref := fillOf(a, perm), fillOf(a, minDegreeReference(a)); got != ref {
			t.Fatalf("fill %d, scalar elimination leaves %d (n=%d, edges %v)", got, ref, n, edges)
		}
	})
}
