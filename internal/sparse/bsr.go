package sparse

import (
	"fmt"
	"sort"
)

// BSR is a block-sparse-row matrix with uniform 2×2 blocks. RowPtr and
// ColIdx index *block* rows and columns (block row br covers scalar rows
// 2·br and 2·br+1); Val stores each block as 4 contiguous values in
// row-major order [b00 b01 b10 b11]. Compared to scalar CSR this halves
// the index traffic per stored value and streams the mat-vec through
// dense 2×2 multiplies — the layout the WLS gain matrix acquires once the
// state vector is interleaved into per-bus (θᵢ, Vᵢ) pairs (BusInterleave).
//
// A BSR is always even-dimensioned. Building one from an odd-dimensional
// CSR (the WLS state has 2·nb−1 variables: the reference bus carries no
// angle) appends one trailing padding variable whose row and column are
// the identity unit vector, so scalar indices 0..n−1 of the source matrix
// are preserved and solves on the padded system restrict exactly to
// solves on the original (the padding component of a right-hand side
// gathered through a −1-padded CGOptions.Perm is zero and stays zero).
//
// The estimator no longer solves in this layout; BSR, NewBSR2 and the
// GainPlan's AttachBSR / RefreshPoolBSR stay only because
// benchmark/replay.go still times them.
type BSR struct {
	Rows, Cols int // scalar dimensions, always even (padding included)
	RowPtr     []int
	ColIdx     []int
	Val        []float64
	padded     bool // last scalar row/col is the identity padding variable
}

// NewBSR2 builds a 2×2-blocked copy of the square matrix a, padding with a
// trailing identity variable when a's dimension is odd. Block slots not
// covered by a stored entry of a hold exact zeros.
func NewBSR2(a *CSR) *BSR {
	b, _ := newBSR2From(a)
	return b
}

// newBSR2From builds the blocked copy plus the scatter map from every
// stored CSR entry to its flat slot in Val — the map GainPlan.AttachBSR
// uses to refresh block storage directly.
func newBSR2From(a *CSR) (*BSR, []int32) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: NewBSR2 needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	padded := n%2 == 1
	nbr := (n + 1) / 2
	b := &BSR{Rows: 2 * nbr, Cols: 2 * nbr, RowPtr: make([]int, nbr+1), padded: padded}
	// Pass 1: block pattern. Each block row merges the (sorted, deduped)
	// scalar column lists of its two scalar rows into sorted block columns.
	colIdx := make([]int, 0, a.NNZ()/2+nbr)
	for br := 0; br < nbr; br++ {
		start := len(colIdx)
		r0 := 2 * br
		p0, e0 := a.RowPtr[r0], a.RowPtr[r0+1]
		var p1, e1 int
		if r1 := r0 + 1; r1 < n {
			p1, e1 = a.RowPtr[r1], a.RowPtr[r1+1]
		}
		for p0 < e0 || p1 < e1 {
			bc := int(^uint(0) >> 1)
			if p0 < e0 {
				bc = a.ColIdx[p0] >> 1
			}
			if p1 < e1 {
				if c := a.ColIdx[p1] >> 1; c < bc {
					bc = c
				}
			}
			for p0 < e0 && a.ColIdx[p0]>>1 == bc {
				p0++
			}
			for p1 < e1 && a.ColIdx[p1]>>1 == bc {
				p1++
			}
			colIdx = append(colIdx, bc)
		}
		if padded && br == nbr-1 {
			// The padding variable's identity entry needs a diagonal block
			// even when the last real variable has no stored diagonal.
			row := colIdx[start:]
			at := sort.SearchInts(row, br)
			if at == len(row) || row[at] != br {
				colIdx = append(colIdx, 0)
				row = colIdx[start:]
				copy(row[at+1:], row[at:])
				row[at] = br
			}
		}
		b.RowPtr[br+1] = len(colIdx)
	}
	b.ColIdx = colIdx
	b.Val = make([]float64, 4*len(colIdx))
	// Pass 2: scatter values and record each entry's slot. Within a scalar
	// row both the scalar and block column sequences are ascending, so a
	// single monotone cursor finds each block.
	pos := make([]int32, a.NNZ())
	for i := 0; i < n; i++ {
		br := i >> 1
		kb := b.RowPtr[br]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			bc := j >> 1
			for b.ColIdx[kb] < bc {
				kb++
			}
			p := int32(4*kb + 2*(i&1) + (j & 1))
			pos[k] = p
			b.Val[p] = a.Val[k]
		}
	}
	if padded {
		br := nbr - 1
		row := b.ColIdx[b.RowPtr[br]:b.RowPtr[br+1]]
		kb := b.RowPtr[br] + sort.SearchInts(row, br)
		b.Val[4*kb+3] = 1
	}
	return b, pos
}

// Dims returns the scalar (padded) dimensions of the matrix.
func (b *BSR) Dims() (rows, cols int) { return b.Rows, b.Cols }

// NNZ returns the number of stored scalar slots (4 per block, padding
// zeros included) — the cost measure the parallel thresholds compare.
func (b *BSR) NNZ() int { return len(b.Val) }

// NBlocks returns the number of stored 2×2 blocks.
func (b *BSR) NBlocks() int { return len(b.ColIdx) }

// Padded reports whether the trailing scalar row/col is an identity
// padding variable added for an odd-dimensional source matrix.
func (b *BSR) Padded() bool { return b.padded }

// At returns the stored value at scalar position (i, j), or 0 when the
// block containing it is not stored. Intended for tests and diagnostics.
func (b *BSR) At(i, j int) float64 {
	if i < 0 || i >= b.Rows || j < 0 || j >= b.Cols {
		panic(fmt.Sprintf("sparse: BSR.At(%d,%d) out of range %dx%d", i, j, b.Rows, b.Cols))
	}
	br, bc := i>>1, j>>1
	row := b.ColIdx[b.RowPtr[br]:b.RowPtr[br+1]]
	at := sort.SearchInts(row, bc)
	if at == len(row) || row[at] != bc {
		return 0
	}
	return b.Val[4*(b.RowPtr[br]+at)+2*(i&1)+(j&1)]
}

// DiagonalInto writes the scalar main diagonal into d (length Rows)
// without allocating; positions whose diagonal block is not stored get 0.
// The padding variable's diagonal is its identity entry, 1.
func (b *BSR) DiagonalInto(d []float64) {
	if len(d) != b.Rows {
		panic(fmt.Sprintf("sparse: DiagonalInto length %d for %dx%d", len(d), b.Rows, b.Cols))
	}
	for br := 0; br < len(b.RowPtr)-1; br++ {
		d0, d1 := 0.0, 0.0
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			if c := b.ColIdx[k]; c >= br {
				if c == br {
					d0, d1 = b.Val[4*k], b.Val[4*k+3]
				}
				break
			}
		}
		d[2*br] = d0
		d[2*br+1] = d1
	}
}

// MulVec computes y = B·x. y and x must have the padded scalar length.
func (b *BSR) MulVec(y, x []float64) {
	b.checkMulDims(y, x)
	b.mulVecBlockRows(y, x, 0, len(b.RowPtr)-1)
}

// mulVecBlockRows is the block-row-range kernel shared by all BSR mat-vec
// paths: fully unrolled 2×2 block multiplies over contiguous values. The
// per-scalar-row accumulation is sequential in ascending column order, so
// it reproduces the scalar CSR kernel term for term — slots padding a
// partially-filled block hold exact zeros and contribute additive no-ops.
func (b *BSR) mulVecBlockRows(y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		s0, s1 := 0.0, 0.0
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			j := b.ColIdx[k] << 1
			v := b.Val[4*k : 4*k+4 : 4*k+4]
			x0, x1 := x[j], x[j+1]
			s0 += v[0] * x0
			s0 += v[1] * x1
			s1 += v[2] * x0
			s1 += v[3] * x1
		}
		i := br << 1
		y[i] = s0
		y[i+1] = s1
	}
}

// blockRowBoundary is the BSR analog of CSR.rowBoundary: the first block
// row of partition w when block rows split into parts contiguous ranges
// of roughly equal stored blocks. Pure function of (w, parts).
func (b *BSR) blockRowBoundary(w, parts int) int {
	if w <= 0 {
		return 0
	}
	nbr := len(b.RowPtr) - 1
	if w >= parts {
		return nbr
	}
	target := len(b.ColIdx) * w / parts
	q := sort.SearchInts(b.RowPtr, target)
	if q > nbr {
		q = nbr
	}
	return q
}

// partitionRows fills bounds (length parts+1) with the nnz-balanced
// block-row partition — the cached form of blockRowBoundary used by CG.
func (b *BSR) partitionRows(bounds []int, parts int) {
	for w := 0; w <= parts; w++ {
		bounds[w] = b.blockRowBoundary(w, parts)
	}
}

// mulVecRanges runs the pooled mat-vec over precomputed partition bounds.
func (b *BSR) mulVecRanges(y, x []float64, p *Pool, bounds []int) {
	p.Run(len(bounds)-1, func(w int) {
		b.mulVecBlockRows(y, x, bounds[w], bounds[w+1])
	})
}

func (b *BSR) checkMulDims(y, x []float64) {
	if len(y) != b.Rows || len(x) != b.Cols {
		panic(fmt.Sprintf("sparse: BSR MulVec dims y=%d x=%d for %dx%d", len(y), len(x), b.Rows, b.Cols))
	}
}
