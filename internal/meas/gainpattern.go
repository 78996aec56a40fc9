package meas

import (
	"math"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// GainPattern returns the pattern of the gain matrix G = HᵀWH for the
// measurement set ms on network n with the angle reference at internal bus
// ref, as a CSR without values (Val nil): what
// sparse.NewGainPlan(mod.NewJacobianPlan().H).G holds for the model
// NewModel(n, ms, ref, ·) builds, written down from the bus graph and the
// meter sites instead of walked off H. So it needs no model: a solve may
// write it, and start the LDLᵀ analysis on it, while the model is built.
// ok is false, and the pattern nil, for every set NewModel rejects.
//
// Two states couple in G when some row of H holds both, and every injection
// or flow row holds the angle (the reference's left out) and the magnitude
// of each of its buses, so G couples bus by bus. A bus's admittance row —
// the buses its in-service branches reach, and itself where it has such a
// branch or a shunt — is the set of buses its injection rows hold. Rows θb
// and Vb both list θc and Vc, angles then magnitudes, each in bus order, for
// every bus c that shares an injection or flow row with b: every c in the
// admittance row of an injection-metered bus k, where k is in b's own
// admittance row, and both ends of every metered branch at b. A bus no such
// row touches keeps only the diagonals its Vmag and Angle rows give, and an
// empty row where it has neither.
//
// The build sorts nothing: it lists each bus's partners unsorted, and since
// sharing a row is symmetric, scattering those lists back by partner, buses
// ascending, sorts every list; each row of G is then written in one pass.
// Each in-service branch's ends are resolved once, and each bus-kind
// meter's bus, through Network.Index; the scratch is two allocations.
func GainPattern(n *grid.Network, ms []Measurement, ref int) (g *sparse.CSR, ok bool) {
	nb, nbr := n.N(), len(n.Branches)
	if ref < 0 || ref >= nb {
		return nil, false
	}
	scratch := make([]int32, 5*nbr+4*nb+2)
	take := func(size int) []int32 {
		s := scratch[:size:size]
		scratch = scratch[size:]
		return s
	}
	// ends holds each in-service branch's two buses, metered flags the
	// in-service branches and those some flow meter reads, and flags the
	// meters at each bus. adjPtr/adj list each bus's admittance neighbours,
	// one entry per in-service branch, with the sign bit set where a flow
	// meter reads the branch. stamp is the adjacency's fill cursor, then
	// dedups the partner lists, then is the sorting's cursor.
	const injected, vmag, angle, inY, refPartner = 1, 2, 4, 8, 16
	const inService, flowMetered = 1, math.MinInt32
	ends, metered, adj := take(2*nbr), take(nbr), take(2*nbr)
	flags, stamp := take(nb), take(nb)
	adjPtr, partPtr := take(nb+1), take(nb+1)
	for bi, br := range n.Branches {
		if !br.Status {
			continue
		}
		// The negated comparison also catches a NaN impedance.
		if den := br.R*br.R + br.X*br.X; !(den > 0) {
			return nil, false
		}
		f, okF := n.Index(br.From)
		t, okT := n.Index(br.To)
		if !okF || !okT {
			return nil, false
		}
		ends[2*bi], ends[2*bi+1] = int32(f), int32(t)
		metered[bi] = inService
		adjPtr[f+1]++
		adjPtr[t+1]++
	}
	for _, m := range ms {
		// Finite and positive sigma, finite value; NaN fails every test.
		if !(m.Sigma > 0 && m.Sigma <= math.MaxFloat64 && math.Abs(m.Value) <= math.MaxFloat64) {
			return nil, false
		}
		switch m.Kind {
		case Vmag, Pinj, Qinj, Angle:
			b, okB := n.Index(m.Bus)
			if !okB {
				return nil, false
			}
			switch m.Kind {
			case Vmag:
				flags[b] |= vmag
			case Angle:
				flags[b] |= angle
			default:
				flags[b] |= injected
			}
		case Pflow, Qflow:
			if m.Branch < 0 || m.Branch >= nbr || metered[m.Branch] == 0 {
				return nil, false
			}
			metered[m.Branch] |= flowMetered
		default:
			return nil, false
		}
	}
	for b := 0; b < nb; b++ {
		adjPtr[b+1] += adjPtr[b]
		stamp[b] = adjPtr[b]
	}
	for bi, br := range n.Branches {
		if br.Status {
			f, t := ends[2*bi], ends[2*bi+1]
			adj[stamp[f]], adj[stamp[t]] = t|metered[bi]&flowMetered, f|metered[bi]&flowMetered
			stamp[f]++
			stamp[t]++
		}
	}

	// Bus b's partner list holds, from each injection-metered k in b's
	// admittance row, k's admittance row, and from each metered branch at b,
	// both ends: bound is the sum of those lengths before duplicates are
	// dropped.
	bound := 0
	for b, bus := range n.Buses {
		deg := int(adjPtr[b+1] - adjPtr[b])
		if deg > 0 || bus.Gs != 0 || bus.Bs != 0 {
			flags[b] |= inY
		}
		if flags[b]&injected != 0 {
			d := deg + int(flags[b]&inY)/inY
			bound += d * d
		}
	}
	for _, m := range metered {
		if m < 0 {
			bound += 4
		}
	}
	part := make([]int32, bound)
	clear(stamp)
	np := int32(0)
	for b := int32(0); b < int32(nb); b++ {
		mark := b + 1
		add := func(c int32) {
			if stamp[c] != mark {
				stamp[c] = mark
				part[np] = c
				np++
			}
		}
		// addRow lists k's admittance row.
		addRow := func(k int32) {
			if flags[k]&inY != 0 {
				add(k)
			}
			for _, c := range adj[adjPtr[k]:adjPtr[k+1]] {
				add(c & math.MaxInt32)
			}
		}
		if flags[b]&(inY|injected) == inY|injected {
			addRow(b)
		}
		for _, k := range adj[adjPtr[b]:adjPtr[b+1]] {
			if k &= math.MaxInt32; flags[k]&injected != 0 {
				addRow(k)
			}
		}
		for _, c := range adj[adjPtr[b]:adjPtr[b+1]] {
			if c < 0 {
				add(b)
				add(c & math.MaxInt32)
			}
		}
		partPtr[b+1] = np
	}

	// c is a partner of b exactly when b is one of c's, so scattering every
	// list back, c ascending, lists each bus's partners in bus order — in the
	// room left after the lists, which duplicates make, the stamps being free
	// to serve as cursors.
	sorted := part[np:]
	if len(sorted) < int(np) {
		sorted = make([]int32, np)
	}
	for b := 0; b < nb; b++ {
		stamp[b] = partPtr[b]
	}
	for c := int32(0); c < int32(nb); c++ {
		for _, b := range part[partPtr[c]:partPtr[c+1]] {
			sorted[stamp[b]] = c
			stamp[b]++
		}
	}

	// Rows θb and Vb hold b's partners' angles, then their magnitudes: one
	// angle fewer than partners where the reference is one of them, which is
	// where b is one of the reference's. The reference has no angle, and the
	// angles of the buses after it sit one place down.
	nA := nb - 1
	n2 := nA + nb
	angPos := func(b int) int {
		if b > ref {
			return b - 1
		}
		return b
	}
	for _, c := range part[partPtr[ref]:partPtr[ref+1]] {
		flags[c] |= refPartner
	}
	rowPtr := make([]int, n2+1)
	for b := 0; b < nb; b++ {
		size := int(partPtr[b+1] - partPtr[b])
		theta, v := 2*size, 2*size
		switch {
		case size == 0:
			theta, v = int(flags[b]&angle)/angle, int(flags[b]&vmag)/vmag
		case flags[b]&refPartner != 0:
			theta, v = theta-1, v-1
		}
		if b != ref {
			rowPtr[angPos(b)+1] = theta
		}
		rowPtr[nA+b+1] = v
	}
	for r := 0; r < n2; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int, rowPtr[n2])
	for b := 0; b < nb; b++ {
		row := colIdx[rowPtr[nA+b]:rowPtr[nA+b+1]]
		list := sorted[partPtr[b]:partPtr[b+1]]
		if len(list) == 0 {
			// Only b's own Vmag and Angle rows reach its states.
			if len(row) == 1 {
				row[0] = nA + b
			}
			if pos := angPos(b); b != ref && rowPtr[pos+1] > rowPtr[pos] {
				colIdx[rowPtr[pos]] = pos
			}
			continue
		}
		i := 0
		for _, c := range list {
			if int(c) != ref {
				row[i] = angPos(int(c))
				i++
			}
		}
		for _, c := range list {
			row[i] = nA + int(c)
			i++
		}
		if b != ref {
			pos := angPos(b)
			copy(colIdx[rowPtr[pos]:rowPtr[pos+1]], row)
		}
	}
	return &sparse.CSR{Rows: n2, Cols: n2, RowPtr: rowPtr, ColIdx: colIdx}, true
}
