package grid

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
)

// mapYBus is the admittance assembly BuildYBus replaced, kept as the
// oracle: one map accumulator per (row, col), keys sorted at the end.
func mapYBus(n *Network) *YBus {
	nb := n.N()
	type key struct{ row, col int }
	type cval struct{ g, b float64 }
	acc := make(map[key]cval, 8*nb)
	add := func(i, j int, g, b float64) {
		k := key{i, j}
		v := acc[k]
		v.g += g
		v.b += b
		acc[k] = v
	}
	for _, br := range n.InService() {
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

		add(f, f, gs/(tap*tap), (bs+bc2)/(tap*tap))
		add(t, t, gs, bs+bc2)
		add(f, t, -(gs*cosS-bs*sinS)/tap, -(bs*cosS+gs*sinS)/tap)
		add(t, f, -(gs*cosS+bs*sinS)/tap, -(bs*cosS-gs*sinS)/tap)
	}
	for i, bus := range n.Buses {
		if bus.Gs != 0 || bus.Bs != 0 {
			add(i, i, bus.Gs/n.BaseMVA, bus.Bs/n.BaseMVA)
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].row != keys[b].row {
			return keys[a].row < keys[b].row
		}
		return keys[a].col < keys[b].col
	})
	y := &YBus{N: nb, RowPtr: make([]int, nb+1)}
	for _, k := range keys {
		v := acc[k]
		y.ColIdx = append(y.ColIdx, k.col)
		y.G = append(y.G, v.g)
		y.B = append(y.B, v.b)
		y.RowPtr[k.row+1]++
	}
	for i := 0; i < nb; i++ {
		y.RowPtr[i+1] += y.RowPtr[i]
	}
	return y
}

// sortedYBus is the bucketed assembly as it was before the terms went
// straight into their rows' buckets, kept as the oracle: every term listed
// first, then bucketed by row and each row stably sorted by column.
func sortedYBus(n *Network) *YBus {
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
		ff, tt, ft, tf := branchTerms(br)
		terms = append(terms,
			term{f, f, ff.g, ff.b}, term{t, t, tt.g, tt.b},
			term{f, t, ft.g, ft.b}, term{t, f, tf.g, tf.b})
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

// ybusTestNetworks returns the IEEE cases, two synthetic WECC sizes and a
// four-bus network of awkward branches.
func ybusTestNetworks(t *testing.T) []*Network {
	t.Helper()
	nets := []*Network{Case14(), Case30(), Case118()}
	for _, areas := range []int{2, 12} {
		n, err := SynthWECC(SynthOptions{Areas: areas, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	// Two parallel circuits 1–2 listed in opposite directions, a tapped
	// phase shifter, a lossless line, a bus shunt, an out-of-service branch.
	odd, err := New("odd", 100,
		[]Bus{{ID: 1, Type: Slack, Vm: 1}, {ID: 2, Type: PQ, Vm: 1, Gs: 3, Bs: 19}, {ID: 7, Type: PQ, Vm: 1}, {ID: 4, Type: PQ, Vm: 1}},
		[]Branch{
			{From: 1, To: 2, R: 0.02, X: 0.1, B: 0.03, Status: true},
			{From: 2, To: 7, R: 0.01, X: 0.2, Tap: 0.97, Shift: 0.1, Status: true},
			{From: 2, To: 1, R: 0.03, X: 0.11, B: 0.01, Status: true},
			{From: 7, To: 4, X: 0.3, Status: true},
			{From: 4, To: 1, R: 0.05, X: 0.25, Status: false},
			{From: 4, To: 2, R: 0.04, X: 0.15, Tap: 1.02, Status: true},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(nets, odd)
}

// TestBuildYBusBitwiseMatchesMapAssembly: the bucketed assembly keeps the
// summation order inside every entry of the map version and of the sorted
// term list, so pattern and values are identical to the last bit — signs of
// zero included, which a lossless line produces.
func TestBuildYBusBitwiseMatchesMapAssembly(t *testing.T) {
	for _, n := range ybusTestNetworks(t) {
		for _, want := range []*YBus{mapYBus(n), sortedYBus(n)} {
			requireYBusBitwise(t, n.Name, BuildYBus(n), want)
		}
	}
}

// requireYBusBitwise fails unless got and want hold the same pattern and the
// same bits in every entry.
func requireYBusBitwise(t *testing.T, name string, got, want *YBus) {
	t.Helper()
	if got.N != want.N || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %d buses / %d entries, want %d / %d", name, got.N, got.NNZ(), want.N, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] ||
			math.Float64bits(got.G[k]) != math.Float64bits(want.G[k]) ||
			math.Float64bits(got.B[k]) != math.Float64bits(want.B[k]) {
			t.Fatalf("%s: entry %d = (%d, %v, %v), want (%d, %v, %v)", name, k,
				got.ColIdx[k], got.G[k], got.B[k], want.ColIdx[k], want.G[k], want.B[k])
		}
	}
}

// TestYBusWithoutBranchMatchesRebuild: taking any in-service branch out of
// the assembled matrix gives, on the shared pattern, the values BuildYBus
// computes for the outaged network bit for bit — one of two parallel
// circuits, a shifter and a shunted bus included — and an explicit +0 where
// the rebuilt matrix stores nothing.
func TestYBusWithoutBranchMatchesRebuild(t *testing.T) {
	for _, n := range ybusTestNetworks(t) {
		y := BuildYBus(n)
		g0, b0 := slices.Clone(y.G), slices.Clone(y.B)
		for out, br := range n.Branches {
			if !br.Status || len(n.Branches) > 400 && out%7 != 0 {
				continue // every branch of the small networks, a sample of the WECC ones
			}
			got := y.WithoutBranch(n, out)
			if &got.RowPtr[0] != &y.RowPtr[0] || &got.ColIdx[0] != &y.ColIdx[0] {
				t.Fatalf("%s outage %d: the pattern was copied", n.Name, out)
			}
			pn := n.Clone()
			pn.Branches[out].Status = false
			want := BuildYBus(pn)
			stored := 0
			for i := 0; i < got.N; i++ {
				for k := got.RowPtr[i]; k < got.RowPtr[i+1]; k++ {
					j := got.ColIdx[k]
					wg, wb := want.At(i, j)
					if math.Float64bits(got.G[k]) != math.Float64bits(wg) || math.Float64bits(got.B[k]) != math.Float64bits(wb) {
						t.Fatalf("%s outage %d: Y(%d,%d) = (%v, %v), rebuilt (%v, %v)", n.Name, out, i, j, got.G[k], got.B[k], wg, wb)
					}
				}
				// The rebuilt row's entries are all on the pattern.
				for k := want.RowPtr[i]; k < want.RowPtr[i+1]; k++ {
					if _, ok := slices.BinarySearch(got.ColIdx[got.RowPtr[i]:got.RowPtr[i+1]], want.ColIdx[k]); ok {
						stored++
					}
				}
			}
			if stored != want.NNZ() {
				t.Fatalf("%s outage %d: %d of the rebuilt matrix's %d entries are on the pattern", n.Name, out, stored, want.NNZ())
			}
		}
		if !slices.Equal(y.G, g0) || !slices.Equal(y.B, b0) {
			t.Fatalf("%s: WithoutBranch wrote to the base matrix", n.Name)
		}
	}
}
