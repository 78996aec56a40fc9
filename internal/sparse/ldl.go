package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// LDLFactor is a complete sparse factorization P·A·Pᵀ = L·D·Lᵀ of a
// symmetric positive-definite matrix (L unit lower triangular, D diagonal).
// Apply is a direct solve, and how the estimator solves its gain system,
// refining a substitution that misses its tolerance on the same factor; it
// also makes the factor a Preconditioner, which only tests and
// benchmarks hand to CG.
//
// The work splits the way the gain plans split theirs. AnalyzeLDL is the
// symbolic half, paid once per sparsity pattern: the factor's own
// fill-reducing permutation (MinDegree's elimination, which also yields the
// elimination tree and the pattern of L), the permuted upper triangle with a
// gather map into the source matrix's value array, and each row of L in the
// order the elimination-tree walk reaches its columns. Refresh is the
// numeric half: an up-looking factorization (Davis, "Algorithm 849: a
// concise sparse Cholesky factorization package") that replays those rows
// instead of walking the tree again, rewrites L and D in place and
// allocates nothing but the error of a breakdown. The permutation lives
// inside the factor — Apply takes and returns vectors in the matrix's own
// order — so the matrix and every consumer of it stay in natural order.
//
// Row k of L reads and writes only columns in k's subtree of the
// elimination tree, so RefreshPool factors disjoint subtrees side by side
// and their ancestors after them, bit for bit what Refresh computes.
//
// A factor is not safe for concurrent use: Refresh and Apply share scratch.
type LDLFactor struct {
	// The analysis: everything down to lRowCol depends on the pattern alone,
	// is never written after AnalyzeLDL, and is shared by SharePattern.
	n    int
	perm []int // fill-reducing order, perm[new] = old

	// Pattern of the analyzed matrix (its own arrays, not copies); Refresh
	// rejects any other.
	rowPtr, colIdx []int

	// Strict upper triangle of P·A·Pᵀ by column: column k holds rows
	// upRow[p] < k whose values are a.Val[upSrc[p]]; the diagonal of column
	// k is a.Val[diagSrc[k]]. Rows and sources are int32, as lRow is.
	upPtr                 []int
	upRow, upSrc, diagSrc []int32

	parent []int   // elimination tree (−1 at roots)
	lPtr   []int   // column pointers of L's strict lower triangle
	lRow   []int32 // row indices, ascending within a column

	// pair[j] is 1 where column j of L is row j+1 followed by column j+1
	// (markPairs), 0 elsewhere: the row kernel and the forward sweep take
	// such a column and the next in one pass over their shared rows.
	pair []int32

	// L's strict lower triangle by rows: row k holds columns
	// lRowCol[lRowPtr[k]:lRowPtr[k+1]] in the order a refresh solves for
	// them, each before its ancestors in the elimination tree: the order the
	// walk up the tree from each entry of upper column k lays them out in.
	lRowPtr []int
	lRowCol []int32

	// The split of the elimination forest for splitParts parts (0: none
	// made): part p factors columns splitCols[splitPtr[p]:splitPtr[p+1]],
	// ascending, and the top is the segment after the last part. Made by
	// AnalyzeLDLPool or a RefreshPool, never edited, so SharePattern shares
	// the arrays; a new part count makes new ones.
	splitParts int
	splitCols  []int32
	splitPtr   []int

	lVal []float64 // L values
	d    []float64 // D

	// Refresh scratch: y accumulates one sparse row of L and is all zero
	// between rows, also after a breakdown; lnz[i] counts the rows of column
	// i of L done so far.
	y   []float64
	lnz []int
	w   []float64 // Apply's permuted vector
}

// PivotError is the ErrNotSPD an LDLᵀ refresh returns, naming where the
// elimination broke down: State is the row of the matrix, in its own
// order, whose pivot Pivot fell to ldlPivotRelFloor·|Diag| or below (or is
// NaN), Diag being that row's diagonal entry. errors.Is(err, ErrNotSPD)
// holds for it.
type PivotError struct {
	State       int
	Pivot, Diag float64
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("%v: pivot %g at state %d, diagonal %g", ErrNotSPD, e.Pivot, e.State, e.Diag)
}

func (e *PivotError) Unwrap() error { return ErrNotSPD }

// ldlPivotRelFloor is the smallest fraction of the matrix diagonal a pivot
// may retain after the update subtractions, as ic0PivotRelFloor: below it
// the pivot is cancellation noise and the matrix is numerically singular.
const ldlPivotRelFloor = ic0PivotRelFloor

// AnalyzeLDL runs the symbolic analysis of the symmetric matrix a and
// returns a factor with no numeric content: Refresh must succeed before the
// first Apply. a must be structurally symmetric and store no entry twice;
// its rows need not be sorted. Values are only ever read from its lower
// triangle and diagonal. The analysis records, for every row of L, its
// columns in the order the up-looking walk of the elimination tree reaches
// them (nnz(L) int32 in all), so that a refresh forms every product in the
// walk's order without walking. The factor keeps a's index arrays, which
// must not be edited afterwards. It fails when a is not square or a
// diagonal entry is missing or stored twice.
func AnalyzeLDL(a *CSR) (*LDLFactor, error) { return AnalyzeLDLPool(a, nil) }

// AnalyzeLDLPool is AnalyzeLDL that also splits the elimination forest for
// RefreshPool on p, which would otherwise split it on its first call. With
// a nil or one-worker pool, or below ParallelNNZThreshold, it is AnalyzeLDL.
func AnalyzeLDLPool(a *CSR, p *Pool) (*LDLFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: LDL requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if nnz := len(a.ColIdx); max(a.Rows, nnz) > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: LDL of dimension %d with %d entries exceeds the factor's int32 indices", a.Rows, nnz)
	}
	n := a.Rows
	// One backing slice per element type, the pattern's apart from the
	// values' (numerics), so a SharePattern copy keeps no values of f alive.
	ints := make([]int, 5*n+3)
	f := &LDLFactor{
		n:       n,
		perm:    carve(&ints, n),
		rowPtr:  a.RowPtr,
		colIdx:  a.ColIdx,
		upPtr:   carve(&ints, n+1),
		diagSrc: make([]int32, n),
		parent:  carve(&ints, n),
		lPtr:    carve(&ints, n+1),
		lRowPtr: ints,
	}
	e := eliminate(a, true, f.perm)
	inv := e.rep // the ordering's scratch, free now
	for k, o := range f.perm {
		inv[o] = k
	}

	// Entry (i, j), j < i, of a lands in column max(inv i, inv j) of the
	// permuted upper triangle.
	for i := range f.diagSrc {
		f.diagSrc[i] = -1
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColIdx[k]; {
			case j == i:
				if f.diagSrc[inv[i]] >= 0 {
					return nil, fmt.Errorf("sparse: LDL: diagonal stored twice at row %d", i)
				}
				f.diagSrc[inv[i]] = int32(k)
			case j < i:
				f.upPtr[max(inv[i], inv[j])+1]++
			}
		}
		if f.diagSrc[inv[i]] < 0 {
			return nil, fmt.Errorf("sparse: LDL: missing diagonal at row %d", i)
		}
	}
	for k := 0; k < n; k++ {
		f.upPtr[k+1] += f.upPtr[k]
	}
	up := make([]int32, 2*f.upPtr[n])
	f.upRow, f.upSrc = carve(&up, f.upPtr[n]), up
	next := e.seen
	copy(next, f.upPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] >= i {
				continue // the same entries the count above took: rows need not be sorted
			}
			pi, pj := inv[i], inv[a.ColIdx[k]]
			p := next[max(pi, pj)]
			next[max(pi, pj)]++
			f.upRow[p], f.upSrc[p] = int32(min(pi, pj)), int32(k)
		}
	}
	f.lower(&e)
	f.numerics()
	f.rows(e.seen)
	if parts := p.Workers(); parts > 1 && len(a.ColIdx) >= parallelNNZThreshold {
		f.split(parts, e.seen, e.deg) // the elimination's scratch, free now
	}
	return f, nil
}

// lower reads L's pattern and the elimination tree off the elimination e
// that made f's ordering. When a supervariable was eliminated its neighbors
// were exactly the supervariables below it in L (George and Liu's
// elimination graph), so member j of a supervariable of width w starting at
// k holds rows k+j+1 … k+w−1 in its column of L, then every member of each
// neighbor in ascending order — its degree then, less j, rows in all — and
// its parent in the elimination tree is the first of those rows.
func (f *LDLFactor) lower(e *elimination) {
	n, perm, lPtr := f.n, f.perm, f.lPtr
	for s := 0; s < n; s += e.weight[perm[s]] {
		v := perm[s]
		for j := range e.weight[v] {
			lPtr[s+j+1] = e.deg[v] - j
		}
		// Name each neighbor by where it starts, for the sort below.
		for i, u := range e.adj[v] {
			e.adj[v][i] = int32(e.end[u] - e.weight[u])
		}
	}
	for k := 0; k < n; k++ {
		lPtr[k+1] += lPtr[k]
	}
	idx := make([]int32, 2*lPtr[n]+n) // L's pattern by columns, by rows (rows), and pair
	f.lRow, f.lRowCol, f.pair = carve(&idx, lPtr[n]), carve(&idx, lPtr[n]), idx
	for s := 0; s < n; {
		v := perm[s]
		last, nbrs := s+e.weight[v]-1, e.adj[v]
		slices.Sort(nbrs)
		below := f.lRow[lPtr[last]:lPtr[last+1]]
		c := 0
		for _, t := range nbrs {
			for r := range int32(e.weight[perm[t]]) {
				below[c] = t + r
				c++
			}
		}
		f.parent[last] = -1
		if len(nbrs) > 0 {
			f.parent[last] = int(nbrs[0])
		}
		for k := s; k < last; k++ {
			col := f.lRow[lPtr[k]:lPtr[k+1]]
			for r := k + 1; r <= last; r++ {
				col[r-k-1] = int32(r)
			}
			copy(col[last-k:], below)
			f.parent[k] = k + 1
		}
		s = last + 1
	}
	f.markPairs()
}

// markPairs sets pair[j] where column j of L starts at row j+1 and holds
// one entry more than column j+1. Column j less its parent lies in the
// parent's column (the elimination tree's inclusion), and its parent is its
// first row, so such a column is exactly j+1 followed by column j+1 — as
// every member but the last of a supervariable is, a bus's θ column beside
// its V column.
func (f *LDLFactor) markPairs() {
	lPtr, lRow := f.lPtr, f.lRow
	for j := 0; j+1 < f.n; j++ {
		if lo := lPtr[j]; lPtr[j+1]-lo == lPtr[j+2]-lPtr[j+1]+1 && lRow[lo] == int32(j+1) {
			f.pair[j] = 1
		}
	}
}

// rows records, for every row k of L, the order a refresh solves for its
// columns in: the up-looking factorization's walk of the elimination tree
// (Davis's ereach). From each entry of upper column k in turn it climbs the
// tree until it meets a column the row already holds, and lays the path,
// bottom first, ahead of the paths before it, so every column comes before
// its ancestors. Each row's slot of lRowCol is exactly its size and doubles
// as the walk's path stack. flag is scratch of length n.
func (f *LDLFactor) rows(flag []int) {
	n := f.n
	clear(flag)
	for _, r := range f.lRow {
		f.lRowPtr[r+1]++
	}
	for k := 0; k < n; k++ {
		f.lRowPtr[k+1] += f.lRowPtr[k]
	}
	for k := 0; k < n; k++ {
		pattern := f.lRowCol[f.lRowPtr[k]:f.lRowPtr[k+1]]
		top := len(pattern)
		flag[k] = k
		for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
			depth := 0
			for i := int(f.upRow[p]); flag[i] != k; i = f.parent[i] {
				pattern[depth] = int32(i)
				depth++
				flag[i] = k
			}
			for depth > 0 {
				top--
				depth--
				pattern[top] = pattern[depth]
			}
		}
	}
}

// SharePattern returns a factor for another matrix of the analyzed pattern
// that shares the whole analysis with f — the ordering, the permuted upper
// triangle, the elimination tree, L's pattern by columns and by rows and the
// split of the forest, if one was made — and owns only L's values, D and its
// scratch. It has no numeric content until its Refresh succeeds;
// the two factors refresh and apply independently, also concurrently.
func (f *LDLFactor) SharePattern() *LDLFactor {
	c := *f
	c.numerics()
	return &c
}

// numerics gives f L's values, D and the refresh scratch of its own: the
// float64 arrays in one allocation, and lnz.
func (f *LDLFactor) numerics() {
	n := f.n
	vals := make([]float64, 3*n+f.lPtr[n])
	f.d, f.y, f.w, f.lVal = carve(&vals, n), carve(&vals, n), carve(&vals, n), vals
	f.lnz = make([]int, n)
}

// sameInts is slices.Equal behind the one-array case, which needs no pass.
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// NewLDL analyzes and factors a.
func NewLDL(a *CSR) (*LDLFactor, error) {
	f, err := AnalyzeLDL(a)
	if err != nil {
		return nil, err
	}
	if err := f.Refresh(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refresh refactors in place from a matrix with the analyzed pattern: the
// analyzed matrix itself or one sharing its index arrays, which is every
// call the estimator makes, or else one whose arrays compare equal. A
// non-positive, NaN or cancellation-level pivot returns a *PivotError, which
// is ErrNotSPD; the factor then holds no usable numerics, but its analysis
// and scratch are intact and a later Refresh may succeed.
func (f *LDLFactor) Refresh(a *CSR) error {
	if err := f.check(a); err != nil {
		return err
	}
	return f.refreshSerial(a.Val)
}

// RefreshPool is Refresh with the parts of the split run side by side on p
// and the top after them on the caller, making the split for p's part count
// first if the analysis holds none for it. Its L and D, and the *PivotError
// of a breakdown, are Refresh's bit for bit: after a breakdown in a part the
// serial pass runs again to find the first failing row. With a nil or
// one-worker pool, or below ParallelNNZThreshold, it is Refresh.
func (f *LDLFactor) RefreshPool(a *CSR, p *Pool) error {
	if err := f.check(a); err != nil {
		return err
	}
	parts := p.Workers()
	if parts <= 1 || len(a.ColIdx) < parallelNNZThreshold {
		return f.refreshSerial(a.Val)
	}
	if f.splitParts != parts {
		f.split(parts, make([]int, f.n), make([]int, f.n))
	}
	val, cols, ptr := a.Val, f.splitCols, f.splitPtr
	var broke atomic.Bool
	p.Run(parts, func(part int) {
		for _, k := range cols[ptr[part]:ptr[part+1]] {
			if f.row(val, int(k)) != nil {
				broke.Store(true)
				return
			}
		}
	})
	if broke.Load() {
		return f.refreshSerial(val)
	}
	// No part broke down and the top runs in ascending order, so the first
	// top row that breaks down is the first the serial pass would meet.
	for _, k := range cols[ptr[parts]:] {
		if pe := f.row(val, int(k)); pe != nil {
			return pe
		}
	}
	return nil
}

func (f *LDLFactor) check(a *CSR) error {
	if a.Rows != f.n || a.Cols != f.n {
		return fmt.Errorf("sparse: LDL refresh with %dx%d matrix, built for %d", a.Rows, a.Cols, f.n)
	}
	if !sameInts(a.RowPtr, f.rowPtr) || !sameInts(a.ColIdx, f.colIdx) {
		return fmt.Errorf("sparse: LDL refresh with changed sparsity pattern")
	}
	return nil
}

// refreshSerial factors every row in ascending order: the one-part split.
func (f *LDLFactor) refreshSerial(val []float64) error {
	for k := 0; k < f.n; k++ {
		if pe := f.row(val, k); pe != nil {
			return pe
		}
	}
	return nil
}

// row computes row k of L and D[k] from the values val of the analyzed
// pattern, every earlier row of k's subtree being done. It scatters upper
// column k into y and solves for the columns of row k in their recorded
// order, touching y, lnz, L and D only at k and the columns below it in the
// elimination tree.
//
// Where the recorded order meets a paired column i and then i+1, the two
// are solved in one pass over the rows they share: row i+1 of column i
// first, then y[r] − L(r,i)·y_i − L(r,i+1)·y_{i+1} for the rest. Every entry
// of y takes the products the column-at-a-time solve gives it, in the same
// order and with nothing in between, so L and D are its bits.
func (f *LDLFactor) row(val []float64, k int) *PivotError {
	y, lnz, d := f.y, f.lnz, f.d
	lPtr, lRow, lVal := f.lPtr, f.lRow, f.lVal
	for p := f.upPtr[k]; p < f.upPtr[k+1]; p++ {
		y[f.upRow[p]] += val[f.upSrc[p]]
	}
	lnz[k] = 0
	// Sparse triangular solve for row k of L, and the pivot.
	akk := val[f.diagSrc[k]]
	dk := akk
	cols := f.lRowCol[f.lRowPtr[k]:f.lRowPtr[k+1]]
	for t := 0; t < len(cols); t++ {
		i := cols[t]
		yi := y[i]
		y[i] = 0
		lo, end := lPtr[i], lPtr[i]+lnz[i]
		if f.takesPair(cols, t) {
			// Column i's done rows are i+1, then column i+1's done rows.
			lo1, end1 := lPtr[i+1], lPtr[i+1]+lnz[i+1]
			yj := y[i+1] - lVal[lo]*yi
			y[i+1] = 0
			rows := lRow[lo1:end1]
			vi, vj := lVal[lo+1 : end][:len(rows)], lVal[lo1:end1][:len(rows)]
			for p, r := range rows {
				y[r] = y[r] - vi[p]*yi - vj[p]*yj
			}
			lki := yi / d[i]
			dk -= lki * yi
			lVal[end] = lki
			lnz[i]++
			lkj := yj / d[i+1]
			dk -= lkj * yj
			lVal[end1] = lkj
			lnz[i+1]++
			t++
			continue
		}
		rows := lRow[lo:end]
		vals := lVal[lo:end][:len(rows)]
		for p, r := range rows {
			y[r] -= vals[p] * yi
		}
		lki := yi / d[i]
		dk -= lki * yi
		lVal[end] = lki
		lnz[i]++
	}
	// The negated comparison catches NaN as well.
	if !(dk > ldlPivotRelFloor*math.Abs(akk)) {
		return &PivotError{State: f.perm[k], Pivot: dk, Diag: akk}
	}
	f.d[k] = dk
	return nil
}

// takesPair reports whether the row kernel solves cols[t], a row's recorded
// columns, together with cols[t+1]: a paired column met right before the
// next one.
func (f *LDLFactor) takesPair(cols []int32, t int) bool {
	return f.pair[cols[t]] != 0 && t+1 < len(cols) && cols[t+1] == cols[t]+1
}

// split divides the elimination forest into parts subtree sets and the top
// above them, after Geist and Ng's subtree-to-processor mapping. Starting
// from the roots, it moves the heaviest subtree's root to the top, its
// children becoming subtrees, for as long as that can still lower the
// estimated time of a pooled refresh: the top plus the heaviest part of a
// largest-first packing of the subtrees. Work is counted in row-kernel
// steps. The search runs in Apply's vector, y and lnz, all free between
// calls, and in child and sibling, scratch of length n the caller owns.
func (f *LDLFactor) split(parts int, child, sibling []int) {
	n, parent := f.n, f.parent
	// rowWork[k]: the scatter of upper column k, plus, for each entry of row
	// k of L, the entries above it in its column that the solve subtracts.
	rowWork, sub := f.w, f.y
	for k := 0; k < n; k++ {
		rowWork[k] = float64(f.upPtr[k+1] - f.upPtr[k] + 1)
	}
	for i := 0; i < n; i++ {
		for j, r := range f.lRow[f.lPtr[i]:f.lPtr[i+1]] {
			rowWork[r] += float64(j + 1)
		}
	}
	// Subtree work, and children and roots as first-child / next-sibling
	// lists.
	roots := -1
	copy(sub, rowWork)
	for k := 0; k < n; k++ {
		child[k] = -1
		if p := parent[k]; p >= 0 {
			sub[p] += sub[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		if p := parent[k]; p >= 0 {
			sibling[k], child[p] = child[p], k
		} else {
			sibling[k], roots = roots, k
		}
	}
	heavier := func(a, b int) int { // a first: more work, then the lower index
		if sub[a] != sub[b] {
			if sub[a] > sub[b] {
				return -1
			}
			return 1
		}
		return a - b
	}
	cols, ptr := make([]int32, n), make([]int, parts+2)
	loads := ptr[:parts]
	// pack sorts set heaviest first, gives each subtree to the least loaded
	// part, noting it in assign unless that is nil, and returns the heaviest
	// load.
	pack := func(set []int, assign []int) float64 {
		slices.SortFunc(set, heavier)
		clear(loads)
		for _, k := range set {
			b := 0
			for q := range loads {
				if loads[q] < loads[b] {
					b = q
				}
			}
			loads[b] += int(sub[k])
			if assign != nil {
				assign[k] = b + 1
			}
		}
		return float64(slices.Max(loads))
	}

	// cand, the candidate subtrees, is a window on scratch that pack leaves
	// sorted, heaviest first: a root moved to the top leaves at the front and
	// its children join at the back, each node once. cols logs the moves.
	cand, total := f.lnz[:0], 0.0
	for k := roots; k >= 0; k = sibling[k] {
		cand = append(cand, k)
		total += sub[k]
	}
	best, moved, topWork := math.Inf(1), 0, 0.0
	for t := 0; len(cand) > 0; t++ {
		if est := pack(cand, nil) + topWork; est < best {
			best, moved = est, t
		}
		k := cand[0]
		// No later state beats this bound: the top only grows, and the rest
		// packs no better than evenly.
		if topWork += rowWork[k]; topWork+(total-topWork)/float64(parts) >= best {
			break
		}
		cols[t] = int32(k)
		cand = cand[1:]
		for c := child[k]; c >= 0; c = sibling[c] {
			cand = append(cand, c)
		}
	}

	// Replay the best state: mark its top (part parts+1), pack its subtrees
	// into parts 1..parts, and give every other column its parent's part.
	part := f.lnz
	clear(part)
	for _, k := range cols[:moved] {
		part[k] = parts + 1
	}
	set := child[:0]
	for k := 0; k < n; k++ {
		if part[k] == 0 && (parent[k] < 0 || part[parent[k]] == parts+1) {
			set = append(set, k)
		}
	}
	pack(set, part)
	for k := n - 1; k >= 0; k-- {
		if part[k] == 0 {
			part[k] = part[parent[k]]
		}
	}
	// Place the columns part by part, ascending within each: ptr[q] is where
	// part q starts, the top being part parts, and ptr[parts+1] = n.
	clear(ptr)
	for _, q := range part {
		ptr[q]++
	}
	for q := 1; q < len(ptr); q++ {
		ptr[q] += ptr[q-1]
	}
	next := sibling
	copy(next, ptr)
	for k, q := range part {
		cols[next[q-1]] = int32(k)
		next[q-1]++
	}
	clear(sub) // y is all zero between rows
	f.splitParts, f.splitCols, f.splitPtr = parts, cols, ptr
}

// Apply solves A·z = r by permuted forward, diagonal and backward
// substitution, which also makes the factor a Preconditioner. It allocates
// nothing. The forward sweep takes a paired column and the next in one pass,
// as the row kernel does, every entry updated in the column-at-a-time order.
// The backward sweep stays a column at a time: each of its entries is a dot
// product summed down one column, and two columns' sums do not merge without
// reordering them. The division by D is the first operation it applies to
// each entry, which is where a separate pass would have left it.
func (f *LDLFactor) Apply(z, r []float64) {
	n := f.n
	w, d, lPtr := f.w[:n], f.d[:n], f.lPtr[:n+1]
	for k, o := range f.perm {
		w[k] = r[o]
	}
	for j := 0; j < n; j++ {
		lo, hi := lPtr[j], lPtr[j+1]
		wj := w[j]
		if f.pair[j] != 0 {
			// Column j is row j+1, then column j+1's rows.
			wk := w[j+1] - f.lVal[lo]*wj
			w[j+1] = wk
			rows := f.lRow[hi:lPtr[j+2]]
			vj, vk := f.lVal[lo+1 : hi][:len(rows)], f.lVal[hi:lPtr[j+2]][:len(rows)]
			for p, i := range rows {
				w[i] = w[i] - vj[p]*wj - vk[p]*wk
			}
			j++
			continue
		}
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		for p, i := range rows {
			w[i] -= vals[p] * wj
		}
	}
	for j := n - 1; j >= 0; j-- {
		lo, hi := lPtr[j], lPtr[j+1]
		rows := f.lRow[lo:hi]
		vals := f.lVal[lo:hi][:len(rows)]
		wj := w[j] / d[j]
		for p, i := range rows {
			wj -= vals[p] * w[i]
		}
		w[j] = wj
	}
	for k, o := range f.perm {
		z[o] = w[k]
	}
}

// Name implements Preconditioner.
func (f *LDLFactor) Name() string { return "ldl" }

// FactorNNZ returns the number of off-diagonal entries of L — the fill the
// ordering left, against the strict lower triangle of the analyzed matrix.
func (f *LDLFactor) FactorNNZ() int { return len(f.lVal) }
