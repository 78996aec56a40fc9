package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// GainPlan is the symbolic half of the gain-matrix product G = Hᵀ·diag(w)·H
// for a fixed sparsity pattern of H. Building the plan does the one-time
// structural work — G's pattern and H's entries listed by column — so each
// numeric Refresh reads row r of G off column r of H: every measurement with
// an entry there adds its whole row, scaled, into a dense accumulator that is
// then gathered into the row's pattern. No COO triplets, no sorting, no
// allocation, and no index of the Σd² products a refresh sums: the plan is
// the size of H and G, not of their product.
//
// An entry's contributions are summed in ascending (measurement, H.Val
// index) order: the same on every build, under every permutation and on
// every worker count, but not the order Gain(h, w) sums its COO stream in, so
// the two agree to a few ulps of Σ|w·h·h|, not bit for bit.
//
// A plan is not safe for concurrent use: refreshes share G.Val and the
// accumulators.
type GainPlan struct {
	// G is the gain-matrix skeleton; Refresh rewrites G.Val in place.
	G *CSR

	// H by columns: colVal and colRow[colPtr[r]:colPtr[r+1]] are the H.Val
	// index and the measurement (row of H) of every H entry that feeds row r
	// of G, ascending because the fill sweeps H row by row.
	colPtr         []int
	colVal, colRow []int32
	// col[p] is the column of G that H entry p feeds under the plan's
	// permutation; nil under natural ordering, where it is h.ColIdx[p].
	col []int

	// rowWork[i] is the number of products summed into the rows of G before
	// row i — the prefix the pooled refresh partitions on, so each worker gets
	// rows of roughly equal multiply-accumulate work rather than equal row
	// count. rowWork[G.Rows] is Σd² over H's rows.
	rowWork []int

	// acc holds one dense row of G per refresh worker (acc[0] is the serial
	// one), all zero between rows: the gather re-zeroes what it reads.
	acc [][]float64

	// bsr is the lazily built 2×2-blocked mirror of G (AttachBSR), and
	// bsrPos maps every G entry to its flat slot in bsr.Val so the blocked
	// refresh writes block storage directly — no scalar intermediate.
	bsr    *BSR
	bsrPos []int32

	// rbounds caches the work-balanced row partition for rparts workers;
	// RefreshPool/RefreshPoolBSR would otherwise redo the workBoundary binary
	// searches on every Gauss–Newton iteration.
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
// permutation of the assembled gain matrix baked into the plan: H entry
// (m, c) feeds row and column inv[c] of G instead of c, so a numeric Refresh
// produces P·(HᵀWH)·Pᵀ directly at no extra per-refresh cost. perm follows
// the package convention (perm[new] = old, length h.Cols); nil selects
// natural ordering. With G permuted, a solve must permute b and x at the
// boundary (CGOptions.Perm). The estimator only builds natural plans; only
// benchmark/replay.go passes a perm.
//
// The build is one sweep of H into column lists and one stamped walk per G
// row over the rows of H that column reaches, which lists the row's distinct
// columns; nothing larger than one row's column set is sorted. The plan
// indexes H with int32 and Σd² bounds G's size, so an H beyond either is
// refused by name before anything is allocated.
func NewGainPlanOrdered(h *CSR, perm []int) *GainPlan {
	n, nnz := h.Cols, h.NNZ()
	work := 0 // Σd² over H's rows: the products one refresh accumulates
	for m := 0; m < h.Rows; m++ {
		work += h.RowNNZ(m) * h.RowNNZ(m)
	}
	if max(n, nnz, work) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: NewGainPlan: %d columns / %d H entries / %d contributions exceed the plan's int32 indices", n, nnz, work))
	}
	gp := &GainPlan{hnnz: nnz, hrows: h.Rows, emptyRow: -1, acc: [][]float64{make([]float64, n)}}
	col := h.ColIdx
	if perm != nil {
		checkPerm(perm, n, "NewGainPlanOrdered")
		inv := InversePerm(perm)
		col = make([]int, nnz)
		for p, c := range h.ColIdx {
			col[p] = inv[c]
		}
		gp.col = col
	}

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
	colVal, colRow := make([]int32, nnz), make([]int32, nnz)
	next := slices.Clone(colPtr[:n])
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
			k := next[col[p]]
			next[col[p]]++
			colVal[k], colRow[k] = int32(p), int32(m)
		}
	}
	gp.colPtr, gp.colVal, gp.colRow = colPtr, colVal, colRow

	// Row r of G holds the columns of every row of H with an entry in column
	// r. A row of H that lists column r twice is walked twice and adds
	// nothing the second time, but its products are summed twice, so it counts
	// twice towards rowWork.
	gp.rowWork = make([]int, n+1)
	gRowPtr := make([]int, n+1)
	gColIdx := make([]int, 0, nnz+n) // a guess that fits measured networks; append covers the rest
	seen := next                     // its fill is done; seen[j] == r+1 marks j as listed for row r
	clear(seen)
	for r := 0; r < n; r++ {
		rowWork := 0
		for _, m := range colRow[colPtr[r]:colPtr[r+1]] {
			row := col[h.RowPtr[m]:h.RowPtr[m+1]]
			for _, j := range row {
				if seen[j] != r+1 {
					seen[j] = r + 1
					gColIdx = append(gColIdx, j)
				}
			}
			rowWork += len(row)
		}
		slices.Sort(gColIdx[gRowPtr[r]:])
		gRowPtr[r+1], gp.rowWork[r+1] = len(gColIdx), gp.rowWork[r]+rowWork
	}
	gp.G = &CSR{Rows: n, Cols: n, RowPtr: gRowPtr, ColIdx: gColIdx, Val: make([]float64, len(gColIdx))}
	return gp
}

// SharePattern returns a plan for another H of the same pattern that shares
// every index array with gp — the column lists, the permutation map, the
// work prefix and G's pattern — and owns only G.Val and its accumulators.
// The two plans refresh independently, also concurrently.
func (gp *GainPlan) SharePattern() *GainPlan {
	return &GainPlan{
		G:      gp.G.SharePattern(),
		colPtr: gp.colPtr, colVal: gp.colVal, colRow: gp.colRow, col: gp.col,
		rowWork: gp.rowWork,
		acc:     [][]float64{make([]float64, gp.G.Rows)},
		hnnz:    gp.hnnz, hrows: gp.hrows, emptyRow: gp.emptyRow,
	}
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
	gp.refreshRows(h, w, gp.acc[0], 0, gp.G.Rows, false)
	return gp.G
}

// RefreshPool recomputes G.Val with rows of G distributed over the pool,
// partitioned by product count (the actual flops) rather than row count.
// Falls back to the serial pass for small systems or a nil pool.
func (gp *GainPlan) RefreshPool(h *CSR, w []float64, p *Pool) *CSR {
	gp.refreshPool(h, w, p, false)
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
// pool using the same work-balanced partition as RefreshPool. Each scalar G
// entry owns a distinct block slot, so workers never write the same index,
// and the kernel is RefreshPool's, so a blocked refresh holds the same values
// as a scalar one bit for bit. Same contract as Refresh: h must keep the
// plan's sparsity pattern.
func (gp *GainPlan) RefreshPoolBSR(h *CSR, w []float64, p *Pool) *BSR {
	gp.AttachBSR()
	gp.refreshPool(h, w, p, true)
	return gp.bsr
}

func (gp *GainPlan) refreshPool(h *CSR, w []float64, p *Pool, blocked bool) {
	gp.check(h, w)
	n := gp.G.Rows
	parts := min(p.Workers(), n)
	if parts <= 1 || gp.rowWork[n] < parallelNNZThreshold {
		gp.refreshRows(h, w, gp.acc[0], 0, n, blocked)
		return
	}
	bounds := gp.refreshBounds(parts)
	p.Run(parts, func(part int) {
		gp.refreshRows(h, w, gp.acc[part], bounds[part], bounds[part+1], blocked)
	})
}

// refreshBounds returns the cached work-balanced partition of G's rows into
// parts ranges, recomputing it — and growing the accumulator set to one per
// part — only when the part count changes.
func (gp *GainPlan) refreshBounds(parts int) []int {
	if gp.rparts == parts && len(gp.rbounds) == parts+1 {
		return gp.rbounds
	}
	for len(gp.acc) < parts {
		gp.acc = append(gp.acc, make([]float64, gp.G.Rows))
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

// workBoundary mirrors CSR.rowBoundary over the product-count prefix.
func (gp *GainPlan) workBoundary(w, parts int) int {
	if w <= 0 {
		return 0
	}
	if w >= parts {
		return gp.G.Rows
	}
	target := gp.rowWork[gp.G.Rows] * w / parts
	b := sort.SearchInts(gp.rowWork, target)
	if b > gp.G.Rows {
		b = gp.G.Rows
	}
	return b
}

// refreshRows computes rows rlo..rhi-1 of G into G.Val, or into the attached
// block storage when blocked. Row r is Σ w[m]·H(m, r)·(row m of H) over the
// entries (m, r) of H's column r, taken in ascending (m, H.Val index) order
// and accumulated into acc — dense, length G.Rows, all zero on entry and on
// return — so every entry of G sums the same products in the same order
// whichever rows a worker is given.
func (gp *GainPlan) refreshRows(h *CSR, w, acc []float64, rlo, rhi int, blocked bool) {
	hv, col := h.Val, gp.col
	if col == nil {
		col = h.ColIdx
	}
	dst, pos := gp.G.Val, []int32(nil)
	if blocked {
		dst, pos = gp.bsr.Val, gp.bsrPos
	}
	for r := rlo; r < rhi; r++ {
		for k := gp.colPtr[r]; k < gp.colPtr[r+1]; k++ {
			m := gp.colRow[k]
			s := w[m] * hv[gp.colVal[k]]
			for q := h.RowPtr[m]; q < h.RowPtr[m+1]; q++ {
				acc[col[q]] += s * hv[q]
			}
		}
		for g := gp.G.RowPtr[r]; g < gp.G.RowPtr[r+1]; g++ {
			j, t := gp.G.ColIdx[g], g
			if pos != nil {
				t = int(pos[g])
			}
			dst[t], acc[j] = acc[j], 0
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
