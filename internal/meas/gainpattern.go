package meas

import "repro/internal/sparse"

// GainPattern returns the pattern of the gain matrix G = HᵀWH of the
// model's Jacobian, as a CSR without values (Val nil): what
// sparse.NewGainPlan(mod.NewJacobianPlan().H).G holds, written down from
// the tables NewJacobianPlan reads instead of walked off H. Two states
// couple in G when some row of H holds both, and every injection or flow
// row holds the angle (the reference's left out) and the magnitude of each
// of its buses, so G couples bus by bus. Rows θb and Vb both list θc and Vc,
// angles then magnitudes, each in bus order, for every bus c that shares an
// injection or flow row with b: every c in the Y-bus row of an
// injection-metered bus k, where k is b or a Y-bus neighbour of b, and both
// ends of every metered flow end at b. A bus no such row touches keeps only
// the diagonals its Vmag and Angle rows give, and an empty row where it has
// neither. The pattern is fixed by the bus graph and the meter sites, so it
// is known as soon as the model is, before any plan is built.
//
// The build sorts nothing: it lists each bus's partners unsorted, and since
// sharing a row is symmetric, scattering those lists back by partner, buses
// ascending, sorts every list; each row of G is then written in one pass.
// Its scratch is one allocation.
func (mod *Model) GainPattern() *sparse.CSR {
	y, k, nA, ref := mod.y, &mod.k, mod.nAngles, mod.refBus
	nb := y.N
	n := nA + nb

	// Bus b's partner list holds, from each injection-metered k in b's Y-bus
	// row, k's Y-bus row, and from each metered flow end at b, both ends:
	// bound is the sum of those lengths before duplicates are dropped.
	bound := 4 * len(k.ends)
	for _, b := range k.injBus {
		d := y.RowPtr[b+1] - y.RowPtr[b]
		bound += d * d
	}
	scratch := make([]int32, 4*nb+2+2*len(k.ends)+bound)
	take := func(size int) []int32 {
		s := scratch[:size:size]
		scratch = scratch[size:]
		return s
	}
	// flags marks the meters at each bus; stamp is the flow lists' fill
	// cursor, then dedups the partner lists, then is the sorting's cursor.
	// flowPtr/flowBus list the far end of every metered flow end at each
	// bus, and partPtr/part the partner lists.
	flags, stamp := take(nb), take(nb)
	flowPtr, flowBus := take(nb+1), take(2*len(k.ends))
	partPtr, part := take(nb+1), scratch
	const injected, vmag, angle = 1, 2, 4
	for _, b := range k.injBus {
		flags[b] = injected
	}
	for _, op := range k.ops {
		switch op.step {
		case stepVmag:
			flags[op.idx] |= vmag
		case stepAngle:
			flags[op.idx] |= angle
		}
	}
	for _, e := range k.ends {
		flowPtr[e.f+1]++
		flowPtr[e.t+1]++
	}
	for b := 0; b < nb; b++ {
		flowPtr[b+1] += flowPtr[b]
		stamp[b] = flowPtr[b]
	}
	for _, e := range k.ends {
		flowBus[stamp[e.f]], flowBus[stamp[e.t]] = e.t, e.f
		stamp[e.f]++
		stamp[e.t]++
	}

	clear(stamp)
	np := int32(0)
	for b := int32(0); b < int32(nb); b++ {
		mark := b + 1
		for _, kk := range y.ColIdx[y.RowPtr[b]:y.RowPtr[b+1]] {
			if flags[kk]&injected == 0 {
				continue
			}
			for _, c := range y.ColIdx[y.RowPtr[kk]:y.RowPtr[kk+1]] {
				if stamp[c] != mark {
					stamp[c] = mark
					part[np] = int32(c)
					np++
				}
			}
		}
		if far := flowBus[flowPtr[b]:flowPtr[b+1]]; len(far) > 0 {
			if stamp[b] != mark {
				stamp[b] = mark
				part[np] = b
				np++
			}
			for _, c := range far {
				if stamp[c] != mark {
					stamp[c] = mark
					part[np] = c
					np++
				}
			}
		}
		partPtr[b+1] = np
	}

	// c is a partner of b exactly when b is one of c's, so scattering every
	// list back, c ascending, lists each bus's partners in bus order — in the
	// scratch left after the lists, which duplicates make room for, the
	// stamps being free to serve as cursors.
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
	// where b is one of the reference's.
	const refPartner = 8
	for _, c := range part[partPtr[ref]:partPtr[ref+1]] {
		flags[c] |= refPartner
	}
	rowPtr := make([]int, n+1)
	for b := 0; b < nb; b++ {
		size := int(partPtr[b+1] - partPtr[b])
		theta, v := 2*size, 2*size
		switch {
		case size == 0:
			theta, v = int(flags[b]&angle)/angle, int(flags[b]&vmag)/vmag
		case flags[b]&refPartner != 0:
			theta, v = theta-1, v-1
		}
		if pos := mod.angPos[b]; pos >= 0 {
			rowPtr[pos+1] = theta
		}
		rowPtr[nA+b+1] = v
	}
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int, rowPtr[n])
	for b := 0; b < nb; b++ {
		row, pos := colIdx[rowPtr[nA+b]:rowPtr[nA+b+1]], mod.angPos[b]
		list := sorted[partPtr[b]:partPtr[b+1]]
		if len(list) == 0 {
			// Only b's own Vmag and Angle rows reach its states.
			if len(row) == 1 {
				row[0] = nA + b
			}
			if pos >= 0 && rowPtr[pos+1] > rowPtr[pos] {
				colIdx[rowPtr[pos]] = pos
			}
			continue
		}
		i := 0
		for _, c := range list {
			if cp := mod.angPos[c]; cp >= 0 {
				row[i] = cp
				i++
			}
		}
		for _, c := range list {
			row[i] = nA + int(c)
			i++
		}
		if pos >= 0 {
			copy(colIdx[rowPtr[pos]:rowPtr[pos+1]], row)
		}
	}
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx}
}
