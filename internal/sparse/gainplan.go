package sparse

import (
	"fmt"
	"sort"
)

// GainPlan is the symbolic half of the gain-matrix product G = Hᵀ·diag(w)·H
// for a fixed sparsity pattern of H. Building the plan does the one-time
// structural work — G's pattern and a scatter map from every (H entry,
// H entry, measurement) product to its target G entry — so each numeric
// Refresh is a flat multiply-accumulate pass with no COO triplets, no
// sorting, and no allocation.
//
// The contribution order inside every G entry replicates the legacy
// Gain(h, w) pipeline (COO insertion order, then the CSR row sort), so a
// refreshed G is numerically identical to a freshly assembled one.
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

	hnnz  int // expected nnz of H, to catch pattern drift
	hrows int
}

// tagRowView sorts a row's column indices carrying an int32 payload. The
// comparisons (and therefore the permutation) are exactly those of the
// rowView sort used by COO.ToCSR, keeping contribution order bitwise
// faithful to the legacy assembly.
type tagRowView struct {
	cols []int
	tags []int32
}

func (r tagRowView) Len() int           { return len(r.cols) }
func (r tagRowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r tagRowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.tags[i], r.tags[j] = r.tags[j], r.tags[i]
}

// NewGainPlan computes the symbolic structure of Hᵀ·diag(w)·H from the
// pattern of h. The plan stays valid as long as h's sparsity pattern is
// unchanged (values are free to change — that is the point).
func NewGainPlan(h *CSR) *GainPlan {
	return NewGainPlanOrdered(h, nil)
}

// NewGainPlanOrdered is NewGainPlan with a symmetric fill-reducing
// permutation of the assembled gain matrix baked into the scatter map:
// every contribution targets G entry (inv[i], inv[j]) instead of (i, j), so
// a numeric Refresh produces P·(HᵀWH)·Pᵀ directly — same flat
// multiply-accumulate pass, zero extra per-refresh cost, RefreshPool stays
// row-parallel. perm follows the package convention (perm[new] = old,
// length h.Cols); nil selects natural ordering. With a non-nil perm the
// legacy bitwise-contribution-order guarantee applies to the permuted
// entries' own deterministic order, not to the natural assembly. With G
// permuted, a solve must permute b and x at the boundary (CGOptions.Perm).
// The estimator only builds natural plans; a non-nil perm is passed only by
// benchmark/replay.go.
func NewGainPlanOrdered(h *CSR, perm []int) *GainPlan {
	n := h.Cols
	var inv []int
	if perm != nil {
		checkPerm(perm, n, "NewGainPlanOrdered")
		inv = InversePerm(perm)
	}
	ntrip := 0
	for m := 0; m < h.Rows; m++ {
		d := h.RowNNZ(m)
		ntrip += d * d
	}

	// Triplet emission in the legacy order: for each measurement row, the
	// outer product of the row with itself.
	rowOf := make([]int, ntrip)  // target G row (column ci of H)
	colOf := make([]int, ntrip)  // target G column (column cj of H)
	tagA := make([]int32, ntrip) // H.Val index of the first factor
	tagB := make([]int32, ntrip) // H.Val index of the second factor
	tagM := make([]int32, ntrip) // measurement index (weight lookup)
	t := 0
	for m := 0; m < h.Rows; m++ {
		lo, hi := h.RowPtr[m], h.RowPtr[m+1]
		for p := lo; p < hi; p++ {
			for q := lo; q < hi; q++ {
				if inv != nil {
					rowOf[t] = inv[h.ColIdx[p]]
					colOf[t] = inv[h.ColIdx[q]]
				} else {
					rowOf[t] = h.ColIdx[p]
					colOf[t] = h.ColIdx[q]
				}
				tagA[t] = int32(p)
				tagB[t] = int32(q)
				tagM[t] = int32(m)
				t++
			}
		}
	}

	// Stable counting sort by G row — the same pass COO.ToCSR performs.
	rowPtr := make([]int, n+1)
	for _, r := range rowOf {
		rowPtr[r+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	scol := make([]int, ntrip)
	order := make([]int32, ntrip)
	next := make([]int, n)
	copy(next, rowPtr[:n])
	for k := 0; k < ntrip; k++ {
		r := rowOf[k]
		p := next[r]
		scol[p] = colOf[k]
		order[p] = int32(k)
		next[r]++
	}

	// Per-row column sort (legacy rowView order), then the dedup scan that
	// fixes G's pattern and groups contributions per G entry.
	gp := &GainPlan{hnnz: h.NNZ(), hrows: h.Rows}
	gRowPtr := make([]int, n+1)
	var gColIdx []int
	gp.entryPtr = append(gp.entryPtr, 0)
	gp.cA = make([]int32, 0, ntrip)
	gp.cB = make([]int32, 0, ntrip)
	gp.cM = make([]int32, 0, ntrip)
	gp.rowWork = make([]int, n+1)
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sort.Sort(tagRowView{cols: scol[lo:hi], tags: order[lo:hi]})
		for k := lo; k < hi; k++ {
			if k == lo || scol[k] != scol[k-1] {
				gColIdx = append(gColIdx, scol[k])
				gp.entryPtr = append(gp.entryPtr, gp.entryPtr[len(gp.entryPtr)-1])
			}
			src := order[k]
			gp.cA = append(gp.cA, tagA[src])
			gp.cB = append(gp.cB, tagB[src])
			gp.cM = append(gp.cM, tagM[src])
			gp.entryPtr[len(gp.entryPtr)-1]++
		}
		gRowPtr[i+1] = len(gColIdx)
		gp.rowWork[i+1] = len(gp.cA)
	}
	gp.G = &CSR{Rows: n, Cols: n, RowPtr: gRowPtr, ColIdx: gColIdx, Val: make([]float64, len(gColIdx))}
	return gp
}

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
