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
// an entry there adds its row, scaled, into a dense accumulator that is then
// gathered into the row's pattern. No COO triplets, no sorting, no
// allocation, and no index of the products a refresh sums: the plan is the
// size of H and G, not of their product.
//
// H's rows must be canonical — columns strictly increasing, as COO.ToCSR and
// the Jacobian plans build them — so the products of G's lower triangle and
// diagonal, the part an LDLᵀ factor reads, are for each measurement a prefix
// of its row. A refresh sums only those, then copies the strict lower
// triangle onto the upper, so G is exactly symmetric. An entry's
// contributions are summed in ascending (measurement, H.Val index) order:
// the same on every build, under every permutation and on every worker
// count, but not the order Gain(h, w) sums its COO stream in, so the two
// agree to a few ulps of Σ|w·h·h|, not bit for bit.
//
// A plan is not safe for concurrent use: refreshes share G.Val and the
// accumulators.
type GainPlan struct {
	// G is the gain-matrix skeleton; Refresh rewrites G.Val in place.
	G *CSR

	// H's pattern as the plan was built on it (H's own arrays, not copies);
	// a refresh panics on any other.
	hRowPtr, hColIdx []int

	// H by columns: colVal and colRow[colPtr[r]:colPtr[r+1]] are the H.Val
	// index and the measurement (row of H) of every H entry in column r,
	// ascending because the fill sweeps H row by row. Row colRow[k] of H up
	// to and including entry colVal[k] is its columns ≤ r: what it adds to
	// row r of G's lower triangle.
	colPtr         []int
	colVal, colRow []int32

	// rowWork[i] is the number of products summed into the rows of G before
	// row i — the prefix the pooled refresh partitions on, so each worker gets
	// rows of roughly equal multiply-accumulate work rather than equal row
	// count. rowWork[G.Rows] is Σ d(d+1)/2 over H's rows.
	rowWork []int

	// acc holds one dense row of G per refresh worker (acc[0] is the serial
	// one), all zero between rows: the gather re-zeroes what it reads. next is
	// the mirror pass's cursor per row.
	acc  [][]float64
	next []int32

	// An ordered plan (NewGainPlanOrdered) runs the natural plan nat's
	// refresh, which stores natural entry g at G.Val[to[g]]; H's pattern, the
	// column lists, the work prefix and the scratch above are then nat's alone.
	nat *GainPlan
	to  []int32

	// bsr is the lazily built 2×2-blocked mirror of G (AttachBSR), and
	// bsrPos maps every entry the refresh computes (of G, or of nat.G for an
	// ordered plan) to its flat slot in bsr.Val so the blocked refresh writes
	// block storage directly — no scalar intermediate.
	bsr    *BSR
	bsrPos []int32

	// rbounds caches the work-balanced row partition for rparts workers;
	// RefreshPool/RefreshPoolBSR would otherwise redo the workBoundary binary
	// searches on every Gauss–Newton iteration.
	rbounds []int
	rparts  int

	emptyRow int // see EmptyRow
}

// NewGainPlan computes the symbolic structure of Hᵀ·diag(w)·H from the
// pattern of h, whose rows may be empty but must be canonical: columns
// strictly increasing within each row. The plan stays valid while that
// pattern does; values are free to change.
//
// The build is one sweep of H into column lists and one stamped walk per G
// row over the rows of H that column reaches, which lists the row's distinct
// columns; nothing larger than one row's column set is sorted. The plan
// indexes H with int32 and Σd² bounds G's size, so an H beyond either is
// refused by name before anything is allocated, as is a row that is not
// canonical.
func NewGainPlan(h *CSR) *GainPlan {
	n, nnz := h.Cols, h.NNZ()
	work := 0 // Σd² over H's rows: a bound on G's size
	for m := 0; m < h.Rows; m++ {
		work += h.RowNNZ(m) * h.RowNNZ(m)
	}
	if max(n, nnz, work) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: NewGainPlan: %d columns / %d H entries / %d contributions exceed the plan's int32 indices", n, nnz, work))
	}
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m] + 1; p < h.RowPtr[m+1]; p++ {
			if h.ColIdx[p] <= h.ColIdx[p-1] {
				panic(fmt.Sprintf("sparse: NewGainPlan: row %d of H lists column %d after column %d; the plan needs strictly increasing columns", m, h.ColIdx[p], h.ColIdx[p-1]))
			}
		}
	}
	gp := &GainPlan{hRowPtr: h.RowPtr, hColIdx: h.ColIdx, emptyRow: -1,
		acc: [][]float64{make([]float64, n)}, next: make([]int32, n)}

	colPtr := make([]int, n+1)
	for _, r := range h.ColIdx {
		colPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		if colPtr[r+1] == 0 && gp.emptyRow < 0 {
			gp.emptyRow = r
		}
		colPtr[r+1] += colPtr[r]
	}
	lists := make([]int32, 2*nnz) // colVal and colRow, one allocation
	colVal, colRow := lists[:nnz:nnz], lists[nnz:]
	next := slices.Clone(colPtr[:n])
	for m := 0; m < h.Rows; m++ {
		for p := h.RowPtr[m]; p < h.RowPtr[m+1]; p++ {
			k := next[h.ColIdx[p]]
			next[h.ColIdx[p]]++
			colVal[k], colRow[k] = int32(p), int32(m)
		}
	}
	gp.colPtr, gp.colVal, gp.colRow = colPtr, colVal, colRow

	// Row r of G holds the columns of every row of H with an entry in column
	// r; the refresh sums, of each such row, the products up to column r.
	gp.rowWork = make([]int, n+1)
	gRowPtr := make([]int, n+1)
	gColIdx := make([]int, 0, nnz+n) // a guess that fits measured networks; append covers the rest
	seen := next                     // its fill is done; seen[j] == r+1 marks j as listed for row r
	clear(seen)
	for r := 0; r < n; r++ {
		rowWork := 0
		for k := colPtr[r]; k < colPtr[r+1]; k++ {
			m := colRow[k]
			for _, j := range h.ColIdx[h.RowPtr[m]:h.RowPtr[m+1]] {
				if seen[j] != r+1 {
					seen[j] = r + 1
					gColIdx = append(gColIdx, j)
				}
			}
			rowWork += int(colVal[k]) - h.RowPtr[m] + 1
		}
		slices.Sort(gColIdx[gRowPtr[r]:])
		gRowPtr[r+1], gp.rowWork[r+1] = len(gColIdx), gp.rowWork[r]+rowWork
	}
	gp.G = &CSR{Rows: n, Cols: n, RowPtr: gRowPtr, ColIdx: gColIdx, Val: make([]float64, len(gColIdx))}
	return gp
}

// NewGainPlanOrdered is NewGainPlan with a symmetric fill-reducing
// permutation of the assembled gain matrix: its G is P·(HᵀWH)·Pᵀ, entry
// (inv[i], inv[j]) holding natural entry (i, j). perm follows the package
// convention (perm[new] = old, length h.Cols); nil selects natural ordering.
// The plan is a natural plan whose refresh stores through a map into the
// permuted pattern, so its G is PermuteSym of the natural plan's G bit for
// bit, exactly symmetric, and h's rows must be canonical as there. With G
// permuted, a solve must permute b and x at the boundary (CGOptions.Perm).
// The estimator only builds natural plans; only benchmark/replay.go passes a
// perm.
func NewGainPlanOrdered(h *CSR, perm []int) *GainPlan {
	nat := NewGainPlan(h)
	if perm == nil {
		return nat
	}
	n, g := h.Cols, nat.G
	checkPerm(perm, n, "NewGainPlanOrdered")
	// Row r of the permuted G is natural row perm[r] renamed by inv. G is
	// exactly symmetric, so natural entry (j, i) may stand for (i, j):
	// walking the natural rows j = perm[c] in permuted order c appends c to
	// every row inv[i] that row lists, which fills each permuted row sorted.
	inv := InversePerm(perm)
	gp := &GainPlan{G: &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, g.NNZ()), Val: make([]float64, g.NNZ())},
		nat: nat, to: make([]int32, g.NNZ()), emptyRow: -1}
	for r, i := range perm {
		gp.G.RowPtr[r+1] = gp.G.RowPtr[r] + g.RowPtr[i+1] - g.RowPtr[i]
	}
	next := slices.Clone(gp.G.RowPtr[:n])
	for c, j := range perm {
		for t := g.RowPtr[j]; t < g.RowPtr[j+1]; t++ {
			r := inv[g.ColIdx[t]]
			gp.G.ColIdx[next[r]], gp.to[t] = c, int32(next[r])
			next[r]++
		}
	}
	for r := 0; r < n && gp.emptyRow < 0; r++ {
		if gp.G.RowPtr[r+1] == gp.G.RowPtr[r] {
			gp.emptyRow = r
		}
	}
	return gp
}

// SharePattern returns a plan for another H of the same pattern that shares
// every index array with gp — H's pattern, the column lists, the map into
// the permuted pattern, the work prefix and G's pattern — and owns only G.Val
// and its scratch. The two plans refresh independently, also concurrently.
func (gp *GainPlan) SharePattern() *GainPlan {
	c := &GainPlan{G: gp.G.SharePattern(), to: gp.to, emptyRow: gp.emptyRow}
	if gp.nat != nil {
		c.nat = gp.nat.SharePattern()
		return c
	}
	c.hRowPtr, c.hColIdx = gp.hRowPtr, gp.hColIdx
	c.colPtr, c.colVal, c.colRow, c.rowWork = gp.colPtr, gp.colVal, gp.colRow, gp.rowWork
	c.acc, c.next = [][]float64{make([]float64, gp.G.Rows)}, make([]int32, gp.G.Rows)
	return c
}

// EmptyRow returns the first row of G without an entry, or -1 if there is
// none: a column of H (the same index, under natural ordering) that no row
// of H touches. G lacks that diagonal, so it is singular whatever the weights.
func (gp *GainPlan) EmptyRow() int { return gp.emptyRow }

// Refresh recomputes G.Val from the current numeric values of h and the
// weights w, serially and without allocating. h must have the sparsity
// pattern the plan was built from.
func (gp *GainPlan) Refresh(h *CSR, w []float64) *CSR {
	gp.refreshPool(h, w, nil, false)
	return gp.G
}

// RefreshPool recomputes G.Val with rows of G distributed over the pool,
// partitioned by product count (the actual flops) rather than row count,
// and mirrors the lower triangle after the join. Falls back to the serial
// pass for small systems or a nil pool.
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
		if gp.to != nil {
			pos := make([]int32, len(gp.to))
			for g, t := range gp.to {
				pos[g] = gp.bsrPos[t]
			}
			gp.bsrPos = pos
		}
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
	dst, pos := gp.G.Val, gp.to
	if blocked {
		dst, pos = gp.bsr.Val, gp.bsrPos
	}
	if gp.nat != nil {
		gp = gp.nat
	}
	gp.check(h, w)
	n := gp.G.Rows
	if parts := min(p.Workers(), n); parts <= 1 || gp.rowWork[n] < parallelNNZThreshold {
		gp.refreshRows(h, w, gp.acc[0], 0, n, dst, pos)
	} else {
		bounds := gp.refreshBounds(parts)
		p.Run(parts, func(part int) {
			gp.refreshRows(h, w, gp.acc[part], bounds[part], bounds[part+1], dst, pos)
		})
	}
	gp.mirror(dst, pos)
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

// refreshRows computes the lower triangle and diagonal of rows rlo..rhi-1
// of G into dst, at pos[g] for entry g if pos is not nil. Row r is
// Σ w[m]·H(m, r)·(row m of H up to column r) over the entries (m, r) of H's
// column r, taken in ascending (m, H.Val index) order and accumulated into
// acc — dense, length G.Rows, all zero on entry and on return — so every
// entry of G sums the same products in the same order whichever rows a
// worker is given.
func (gp *GainPlan) refreshRows(h *CSR, w, acc []float64, rlo, rhi int, dst []float64, pos []int32) {
	hv := h.Val
	for r := rlo; r < rhi; r++ {
		for k := gp.colPtr[r]; k < gp.colPtr[r+1]; k++ {
			m, e := gp.colRow[k], int(gp.colVal[k])
			s := w[m] * hv[e]
			lo := h.RowPtr[m]
			vals := hv[lo : e+1]
			for q, c := range h.ColIdx[lo : e+1][:len(vals)] {
				acc[c] += s * vals[q]
			}
		}
		for g := gp.G.RowPtr[r]; g < gp.G.RowPtr[r+1]; g++ {
			j, t := gp.G.ColIdx[g], g
			if j > r {
				break
			}
			if pos != nil {
				t = int(pos[g])
			}
			dst[t], acc[j] = acc[j], 0
		}
	}
}

// mirror copies G's strict lower triangle onto the upper. Taken row by row,
// the entries (r, j), j < r, reach each row j's upper triangle in ascending
// r, its column order, so a cursor per row, set past the diagonal when the
// pass reaches it, names the slot of G(j, r).
func (gp *GainPlan) mirror(dst []float64, pos []int32) {
	g, next := gp.G, gp.next
	for r := 0; r < g.Rows; r++ {
		k := g.RowPtr[r]
		for ; k < g.RowPtr[r+1] && g.ColIdx[k] < r; k++ {
			j := g.ColIdx[k]
			if pos != nil {
				dst[pos[next[j]]] = dst[pos[k]]
			} else {
				dst[next[j]] = dst[k]
			}
			next[j]++
		}
		next[r] = int32(k + 1)
	}
}

func (gp *GainPlan) check(h *CSR, w []float64) {
	if !sameInts(h.RowPtr, gp.hRowPtr) || !sameInts(h.ColIdx, gp.hColIdx) {
		panic(fmt.Sprintf("sparse: GainPlan refresh with changed H pattern (%d rows/%d nnz, plan %d/%d)",
			h.Rows, h.NNZ(), len(gp.hRowPtr)-1, len(gp.hColIdx)))
	}
	if len(w) != h.Rows {
		panic(fmt.Sprintf("sparse: GainPlan weight length %d != rows %d", len(w), h.Rows))
	}
}
