package grid

import (
	"cmp"
	"math"
	"slices"
)

// YBus is the complex nodal admittance matrix Y = G + jB in a CSR-like
// layout with parallel real and imaginary value arrays. Indices are
// internal bus indices.
type YBus struct {
	N      int
	RowPtr []int
	ColIdx []int
	G, B   []float64
}

// BuildYBus constructs the admittance matrix from the in-service branches
// and bus shunts using the standard two-port transformer model:
//
//	Yff = (ys + j·bc/2) / τ²
//	Yft = −ys / (τ·e^{−jθ})
//	Ytf = −ys / (τ·e^{+jθ})
//	Ytt =  ys + j·bc/2
//
// with series admittance ys = 1/(r + jx), charging bc, tap τ and shift θ.
//
// The terms of one entry — parallel circuits, the branches meeting at a
// bus, its shunt — are summed in branch order, then the shunt.
func BuildYBus(n *Network) *YBus {
	nb := n.N()
	type term struct {
		row, col int
		g, b     float64
	}
	terms := make([]term, 0, 4*len(n.Branches)+nb)
	for _, br := range n.Branches {
		if !br.Status {
			continue
		}
		f := n.MustIndex(br.From)
		t := n.MustIndex(br.To)
		den := br.R*br.R + br.X*br.X
		gs := br.R / den
		bs := -br.X / den
		tap := br.Tap
		if tap == 0 {
			tap = 1
		}
		cosS, sinS := math.Cos(br.Shift), math.Sin(br.Shift)
		bc2 := br.B / 2

		terms = append(terms,
			term{f, f, gs / (tap * tap), (bs + bc2) / (tap * tap)}, // Yff
			term{t, t, gs, bs + bc2},                               // Ytt
			// Yft = −(ys·e^{+jθ})/τ
			term{f, t, -(gs*cosS - bs*sinS) / tap, -(bs*cosS + gs*sinS) / tap},
			// Ytf = −(ys·e^{−jθ})/τ
			term{t, f, -(gs*cosS + bs*sinS) / tap, -(bs*cosS - gs*sinS) / tap})
	}
	for i, bus := range n.Buses {
		if bus.Gs != 0 || bus.Bs != 0 {
			terms = append(terms, term{i, i, bus.Gs / n.BaseMVA, bus.Bs / n.BaseMVA})
		}
	}

	// Bucket the terms by row, then order each short row by column. Both
	// steps are stable, so the terms of one entry stay in emission order.
	ptr := make([]int, nb+1)
	for _, t := range terms {
		ptr[t.row+1]++
	}
	for i := 0; i < nb; i++ {
		ptr[i+1] += ptr[i]
	}
	rows := make([]term, len(terms))
	next := make([]int, nb)
	copy(next, ptr)
	for _, t := range terms {
		rows[next[t.row]] = t
		next[t.row]++
	}
	y := &YBus{N: nb, RowPtr: make([]int, nb+1)}
	nnz := 0
	for i := 0; i < nb; i++ {
		row := rows[ptr[i]:ptr[i+1]]
		slices.SortStableFunc(row, func(a, b term) int { return cmp.Compare(a.col, b.col) })
		for k := range row {
			if k == 0 || row[k].col != row[k-1].col {
				nnz++
			}
		}
		y.RowPtr[i+1] = nnz
	}

	// Merge equal columns: every entry starts at zero and adds its terms.
	y.ColIdx = make([]int, nnz)
	y.G = make([]float64, nnz)
	y.B = make([]float64, nnz)
	e := -1
	for i := 0; i < nb; i++ {
		for k, t := range rows[ptr[i]:ptr[i+1]] {
			if k == 0 || t.col != y.ColIdx[e] {
				e++
				y.ColIdx[e] = t.col
			}
			y.G[e] += t.g
			y.B[e] += t.b
		}
	}
	return y
}

// At returns Y(i,j) as (g, b); zero if not stored.
func (y *YBus) At(i, j int) (g, b float64) {
	for k := y.RowPtr[i]; k < y.RowPtr[i+1]; k++ {
		if y.ColIdx[k] == j {
			return y.G[k], y.B[k]
		}
	}
	return 0, 0
}

// Row invokes f for every stored entry (j, g, b) of row i.
func (y *YBus) Row(i int, f func(j int, g, b float64)) {
	for k := y.RowPtr[i]; k < y.RowPtr[i+1]; k++ {
		f(y.ColIdx[k], y.G[k], y.B[k])
	}
}

// NNZ returns the number of stored entries.
func (y *YBus) NNZ() int { return len(y.ColIdx) }
