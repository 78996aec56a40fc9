package grid

import (
	"cmp"
	"fmt"
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
// bus, its shunt — are summed in branch order, then the shunt: each row's
// terms land in its bucket of one buffer in that order, sorted stably.
func BuildYBus(n *Network) *YBus {
	nb := n.N()
	type term struct {
		col  int
		g, b float64
	}
	// ptr[i] is where row i's bucket starts; placing a term advances it, so
	// once all are placed ptr[i] is where the bucket ends. ends holds each
	// in-service branch's two buses, resolved once for both passes.
	ptr := make([]int, nb+1+2*len(n.Branches))
	ptr, ends := ptr[:nb+1], ptr[nb+1:]
	for bi, br := range n.Branches {
		if br.Status {
			f, t := n.MustIndex(br.From), n.MustIndex(br.To)
			ends[2*bi], ends[2*bi+1] = f, t
			ptr[f+1] += 2
			ptr[t+1] += 2
		}
	}
	for i, bus := range n.Buses {
		if bus.Gs != 0 || bus.Bs != 0 {
			ptr[i+1]++
		}
	}
	for i := 0; i < nb; i++ {
		ptr[i+1] += ptr[i]
	}
	rows := make([]term, ptr[nb])
	place := func(row, col int, t admittance) {
		rows[ptr[row]] = term{col, t.g, t.b}
		ptr[row]++
	}
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		f, t := ends[2*bi], ends[2*bi+1]
		ff, tt, ft, tf := branchTerms(br)
		place(f, f, ff)
		place(t, t, tt)
		place(f, t, ft)
		place(t, f, tf)
	}
	for i, bus := range n.Buses {
		if bus.Gs != 0 || bus.Bs != 0 {
			place(i, i, admittance{bus.Gs / n.BaseMVA, bus.Bs / n.BaseMVA})
		}
	}

	y := &YBus{N: nb, RowPtr: make([]int, nb+1)}
	nnz, lo := 0, 0
	for i := 0; i < nb; i++ {
		row := rows[lo:ptr[i]]
		lo = ptr[i]
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
	e, lo := -1, 0
	for i := 0; i < nb; i++ {
		for k, t := range rows[lo:ptr[i]] {
			if k == 0 || t.col != y.ColIdx[e] {
				e++
				y.ColIdx[e] = t.col
			}
			y.G[e] += t.g
			y.B[e] += t.b
		}
		lo = ptr[i]
	}
	return y
}

// admittance is one term g + jb of an admittance-matrix entry.
type admittance struct{ g, b float64 }

// branchTerms returns the four terms of the two-port model above that a
// branch adds to the matrix, in the order BuildYBus emits them: Yff, Ytt,
// Yft, Ytf. It is the one spelling of that arithmetic, so BuildYBus and
// WithoutBranch agree bit for bit.
func branchTerms(br Branch) (ff, tt, ft, tf admittance) {
	den := br.R*br.R + br.X*br.X
	gs := br.R / den
	bs := -br.X / den
	tap := br.Tap
	if tap == 0 {
		tap = 1
	}
	cosS, sinS := math.Cos(br.Shift), math.Sin(br.Shift)
	bc2 := br.B / 2
	return admittance{gs / (tap * tap), (bs + bc2) / (tap * tap)},
		admittance{gs, bs + bc2},
		// Yft = −(ys·e^{+jθ})/τ
		admittance{-(gs*cosS - bs*sinS) / tap, -(bs*cosS + gs*sinS) / tap},
		// Ytf = −(ys·e^{−jθ})/τ
		admittance{-(gs*cosS + bs*sinS) / tap, -(bs*cosS - gs*sinS) / tap}
}

// WithoutBranch returns the admittance matrix of n with in-service branch
// out taken out, on y's pattern: RowPtr and ColIdx are shared with y, G and
// B are the copy's own. y must be BuildYBus(n). Only the four entries the
// branch's terms land on change, and each is summed again from zero over
// the remaining branches in BuildYBus's order, so every value equals the
// one BuildYBus computes for the outaged network bit for bit; a bus pair
// that loses its only branch keeps its two entries as explicit zeros.
func (y *YBus) WithoutBranch(n *Network, out int) *YBus {
	v := &YBus{N: y.N, RowPtr: y.RowPtr, ColIdx: y.ColIdx, G: slices.Clone(y.G), B: slices.Clone(y.B)}
	o := n.Branches[out]
	// side maps a bus number to 0 (the outage's From bus), 1 (its To bus)
	// or −1, and at[r][c] is the entry of the block those two buses span
	// (two distinct buses: New rejects self loops).
	ends := [2]int{n.MustIndex(o.From), n.MustIndex(o.To)}
	side := func(id int) int {
		switch id {
		case o.From:
			return 0
		case o.To:
			return 1
		}
		return -1
	}
	var at [2][2]int
	for r, i := range ends {
		for c, j := range ends {
			row := y.ColIdx[y.RowPtr[i]:y.RowPtr[i+1]]
			k, ok := slices.BinarySearch(row, j)
			if !ok {
				panic(fmt.Sprintf("grid: admittance matrix has no entry (%d,%d) for branch %d", i, j, out))
			}
			at[r][c] = y.RowPtr[i] + k
			v.G[at[r][c]], v.B[at[r][c]] = 0, 0
		}
	}
	add := func(r, c int, t admittance) {
		if r >= 0 && c >= 0 {
			v.G[at[r][c]] += t.g
			v.B[at[r][c]] += t.b
		}
	}
	for bi, br := range n.Branches {
		f, t := side(br.From), side(br.To)
		if !br.Status || bi == out || f < 0 && t < 0 {
			continue
		}
		ff, tt, ft, tf := branchTerms(br)
		add(f, f, ff)
		add(t, t, tt)
		add(f, t, ft)
		add(t, f, tf)
	}
	for r, i := range ends {
		if bus := n.Buses[i]; bus.Gs != 0 || bus.Bs != 0 {
			add(r, r, admittance{bus.Gs / n.BaseMVA, bus.Bs / n.BaseMVA})
		}
	}
	return v
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
