package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// GainPlan is the symbolic half of the gain-matrix product G = Hᵀ·diag(w)·H
// for a fixed sparsity pattern of H. Building the plan does the one-time
// structural work — G's pattern and a scatter map from every (H entry,
// H entry, measurement) product to its target G entry — so each numeric
// Refresh is a flat multiply-accumulate pass with no COO triplets, no
// sorting, and no allocation.
//
// An entry's contributions are summed in ascending (measurement, H.Val
// index) order: the same on every build and under every permutation, but not
// the order Gain(h, w) sums its COO stream in, so the two agree to a few
// ulps of Σ|w·h·h|, not bit for bit.
type GainPlan struct {
	// G is the gain-matrix skeleton; Refresh rewrites G.Val in place.
	G *CSR

	// entryPtr[g]..entryPtr[g+1] delimit the contributions of G entry g in
	// the flat contribution arrays below.
	entryPtr []int32
	// cA/cB are H.Val indices and cM the measurement (row of H) index of
	// each contribution: G.Val[g] = Σ w[cM]·H.Val[cA]·H.Val[cB].
	cA, cB, cM []int32

	// rowWork[i] is the total contribution count before row i of G — the
	// prefix the pooled refresh partitions on, so each worker gets rows of
	// roughly equal multiply-accumulate work rather than equal row count.
	rowWork []int

	// bsr is the lazily built 2×2-blocked mirror of G (AttachBSR), and
	// bsrPos maps every G entry to its flat slot in bsr.Val so the blocked
	// refresh writes block storage directly — no scalar intermediate.
	bsr    *BSR
	bsrPos []int32

	// rbounds caches the contribution-balanced row partition for rparts
	// workers; RefreshPool/RefreshPoolBSR would otherwise redo the
	// workBoundary binary searches on every Gauss–Newton iteration.
	rbounds []int
	rparts  int

	hnnz, hrows int // expected nnz and rows of H, to catch pattern drift
	emptyRow    int // see EmptyRow
}

// NewGainPlan computes the symbolic structure of Hᵀ·diag(w)·H from the
// pattern of h, whose rows may be empty, unsorted, and repeat a column. The
// plan stays valid while that pattern does; values are free to change.
func NewGainPlan(h *CSR) *GainPlan {
	return NewGainPlanOrdered(h, nil)
}

// NewGainPlanOrdered is NewGainPlan with a symmetric fill-reducing
// permutation of the assembled gain matrix baked into the scatter map:
// every contribution targets G entry (inv[i], inv[j]) instead of (i, j), so
// a numeric Refresh produces P·(HᵀWH)·Pᵀ directly at no extra per-refresh
// cost. perm follows the package convention (perm[new] = old, length
// h.Cols); nil selects natural ordering. With G permuted, a solve must
// permute b and x at the boundary (CGOptions.Perm). The estimator only
// builds natural plans; only benchmark/replay.go passes a perm.
//
// Row r of G is read off the column of H that feeds it: each measurement
// with an entry there contributes its whole row. No triplet list is formed
// and nothing larger than one row's column set is sorted.
func NewGainPlanOrdered(h *CSR, perm []int) *GainPlan {
	n, nnz := h.Cols, h.NNZ()
	work := 0 // Σd² over H's rows: the products one refresh accumulates
	for m := 0; m < h.Rows; m++ {
		work += h.RowNNZ(m) * h.RowNNZ(m)
	}
	if max(n, nnz, work) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: NewGainPlan: %d columns / %d H entries / %d contributions exceed the plan's int32 indices", n, nnz, work))
	}
	col := h.ColIdx // col[p] is the row (and column) of G that H entry p feeds
	if perm != nil {
		checkPerm(perm, n, "NewGainPlanOrdered")
		inv := InversePerm(perm)
		col = make([]int, nnz)
		for p, c := range h.ColIdx {
			col[p] = inv[c]
		}
	}

	// H by columns: colVal/colRow[colPtr[r]:colPtr[r+1]] are the entries that
	// feed G row r, ascending because the fill sweeps H row by row.
	gp := &GainPlan{hnnz: nnz, hrows: h.Rows, emptyRow: -1}
	colPtr := make([]int, n+1)
	for _, r := range col {
		colPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		if colPtr[r+1] == 0 && gp.emptyRow < 0 {
			gp.emptyRow = r
		}
		colPtr[r+1] += colPtr[r]
	}
	colVal, colRow := make([]int32, nnz), make([]int32, nnz) // H.Val index, measurement
	next := slices.Clone(colPtr[:n])
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
			k := next[col[p]]
			next[col[p]]++
			colVal[k], colRow[k] = int32(p), int32(m)
		}
	}

	// Pass 1 lists each G row's distinct columns and counts the contributions
	// to each in slot. A row has at least as many contributions as columns, so
	// list and counts wait for pass 2 at the head of its stretch of cA and cB.
	gp.cA, gp.cB, gp.cM = make([]int32, work), make([]int32, work), make([]int32, work)
	gp.rowWork = make([]int, n+1)
	gRowPtr := make([]int, n+1)
	seen, slot := make([]int, n), make([]int32, n) // seen[j] == r+1: j is listed for row r
	for r := 0; r < n; r++ {
		lo := gp.rowWork[r]
		hi, end := lo, lo
		for _, m := range colRow[colPtr[r]:colPtr[r+1]] {
			for _, j := range col[h.RowPtr[m]:h.RowPtr[m+1]] {
				if seen[j] != r+1 {
					seen[j], slot[j] = r+1, 0
					gp.cA[hi] = int32(j)
					hi++
				}
				slot[j]++
			}
			end += h.RowNNZ(int(m))
		}
		for k := lo; k < hi; k++ {
			gp.cB[k] = slot[gp.cA[k]]
		}
		gRowPtr[r+1], gp.rowWork[r+1] = gRowPtr[r]+hi-lo, end
	}

	// Pass 2 sorts each row's few columns, turns the counts into write
	// offsets and walks the row again to drop every contribution in place.
	gColIdx := make([]int, gRowPtr[n])
	gp.entryPtr = make([]int32, gRowPtr[n]+1)
	for r := 0; r < n; r++ {
		g := gRowPtr[r]
		row := gColIdx[g:gRowPtr[r+1]]
		for k := range row {
			row[k] = int(gp.cA[gp.rowWork[r]+k])
			slot[row[k]] = gp.cB[gp.rowWork[r]+k]
		}
		slices.Sort(row)
		for _, j := range row {
			gp.entryPtr[g+1] = gp.entryPtr[g] + slot[j]
			slot[j] = gp.entryPtr[g]
			g++
		}
		for k := colPtr[r]; k < colPtr[r+1]; k++ {
			p, m := colVal[k], colRow[k]
			for q := h.RowPtr[m]; q < h.RowPtr[m+1]; q++ {
				t := slot[col[q]]
				slot[col[q]]++
				gp.cA[t], gp.cB[t], gp.cM[t] = p, int32(q), m
			}
		}
	}
	gp.G = &CSR{Rows: n, Cols: n, RowPtr: gRowPtr, ColIdx: gColIdx, Val: make([]float64, len(gColIdx))}
	return gp
}

// EmptyRow returns the first row of G without an entry, or -1 if there is
// none: a column of H (the same index, under natural ordering) that no row
// of H touches. G lacks that diagonal, so it is singular whatever the weights.
func (gp *GainPlan) EmptyRow() int { return gp.emptyRow }

// Refresh recomputes G.Val from the current numeric values of h and the
// weights w, serially and without allocating. h must have the sparsity
// pattern the plan was built from.
func (gp *GainPlan) Refresh(h *CSR, w []float64) *CSR {
	gp.check(h, w)
	gp.refreshRows(h, w, 0, gp.G.Rows)
	return gp.G
}

// RefreshPool recomputes G.Val with rows of G distributed over the pool,
// partitioned by contribution count (the actual flops) rather than row
// count. Falls back to the serial pass for small systems or a nil pool.
func (gp *GainPlan) RefreshPool(h *CSR, w []float64, p *Pool) *CSR {
	gp.check(h, w)
	work := len(gp.cA)
	parts := p.Workers()
	if parts > gp.G.Rows {
		parts = gp.G.Rows
	}
	if parts <= 1 || work < parallelNNZThreshold {
		gp.refreshRows(h, w, 0, gp.G.Rows)
		return gp.G
	}
	bounds := gp.refreshBounds(parts)
	p.Run(parts, func(part int) {
		gp.refreshRows(h, w, bounds[part], bounds[part+1])
	})
	return gp.G
}

// AttachBSR builds (once) the 2×2-blocked mirror of the plan's gain matrix
// — a BSR skeleton over G's pattern, padded with a trailing identity
// variable when the dimension is odd — together with a scatter map from
// every G entry to its slot in block storage. RefreshPoolBSR then
// rewrites the blocked values directly; G.Val itself is left untouched
// by the blocked refresh. The blocked layout only pays off when the plan's
// ordering interleaves each bus's (θ, V) pair (see BusInterleave): that is
// what lines G's 2×2 bus couplings up with the block grid.
func (gp *GainPlan) AttachBSR() *BSR {
	if gp.bsr == nil {
		gp.bsr, gp.bsrPos = newBSR2From(gp.G)
	}
	return gp.bsr
}

// RefreshPoolBSR recomputes the attached blocked gain matrix from the
// current numeric values of h and the weights w without allocating (the
// first call builds the skeleton via AttachBSR), rows distributed over the
// pool using the same contribution-balanced partition as RefreshPool. Each
// scalar G entry owns a distinct block slot, so workers never write the same
// index. Same contract as Refresh: h must keep the plan's sparsity pattern.
func (gp *GainPlan) RefreshPoolBSR(h *CSR, w []float64, p *Pool) *BSR {
	gp.check(h, w)
	gp.AttachBSR()
	work := len(gp.cA)
	parts := p.Workers()
	if parts > gp.G.Rows {
		parts = gp.G.Rows
	}
	if parts <= 1 || work < parallelNNZThreshold {
		gp.refreshRowsBSR(h, w, 0, gp.G.Rows)
		return gp.bsr
	}
	bounds := gp.refreshBounds(parts)
	p.Run(parts, func(part int) {
		gp.refreshRowsBSR(h, w, bounds[part], bounds[part+1])
	})
	return gp.bsr
}

// refreshRowsBSR is refreshRows writing into block storage through the
// AttachBSR scatter map. The per-entry accumulation order is identical, so
// a blocked refresh holds the same values as a scalar one bit for bit.
func (gp *GainPlan) refreshRowsBSR(h *CSR, w []float64, rlo, rhi int) {
	hv := h.Val
	bv := gp.bsr.Val
	for i := rlo; i < rhi; i++ {
		for g := gp.G.RowPtr[i]; g < gp.G.RowPtr[i+1]; g++ {
			sum := 0.0
			for t := gp.entryPtr[g]; t < gp.entryPtr[g+1]; t++ {
				sum += w[gp.cM[t]] * hv[gp.cA[t]] * hv[gp.cB[t]]
			}
			bv[gp.bsrPos[g]] = sum
		}
	}
}

// refreshBounds returns the cached contribution-balanced partition of G's
// rows into parts ranges, recomputing it only when the part count changes.
func (gp *GainPlan) refreshBounds(parts int) []int {
	if gp.rparts == parts && len(gp.rbounds) == parts+1 {
		return gp.rbounds
	}
	if cap(gp.rbounds) < parts+1 {
		gp.rbounds = make([]int, parts+1)
	}
	gp.rbounds = gp.rbounds[:parts+1]
	for w := 0; w <= parts; w++ {
		gp.rbounds[w] = gp.workBoundary(w, parts)
	}
	gp.rparts = parts
	return gp.rbounds
}

// workBoundary mirrors CSR.rowBoundary over the contribution-count prefix.
func (gp *GainPlan) workBoundary(w, parts int) int {
	if w <= 0 {
		return 0
	}
	if w >= parts {
		return gp.G.Rows
	}
	target := len(gp.cA) * w / parts
	b := sort.SearchInts(gp.rowWork, target)
	if b > gp.G.Rows {
		b = gp.G.Rows
	}
	return b
}

func (gp *GainPlan) refreshRows(h *CSR, w []float64, rlo, rhi int) {
	hv := h.Val
	for i := rlo; i < rhi; i++ {
		for g := gp.G.RowPtr[i]; g < gp.G.RowPtr[i+1]; g++ {
			sum := 0.0
			for t := gp.entryPtr[g]; t < gp.entryPtr[g+1]; t++ {
				sum += w[gp.cM[t]] * hv[gp.cA[t]] * hv[gp.cB[t]]
			}
			gp.G.Val[g] = sum
		}
	}
}

func (gp *GainPlan) check(h *CSR, w []float64) {
	if h.NNZ() != gp.hnnz || h.Rows != gp.hrows {
		panic(fmt.Sprintf("sparse: GainPlan refresh with changed H pattern (%d rows/%d nnz, plan %d/%d)",
			h.Rows, h.NNZ(), gp.hrows, gp.hnnz))
	}
	if len(w) != h.Rows {
		panic(fmt.Sprintf("sparse: GainPlan weight length %d != rows %d", len(w), h.Rows))
	}
}
