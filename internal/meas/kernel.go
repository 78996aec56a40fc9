package meas

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grid"
)

// kernel is a Model compiled into flat, integer-indexed tables: everything
// h(x) and H(x) need that does not depend on the state is resolved once, at
// NewModel, so the Gauss–Newton loop does no bus-number map lookup, no
// branch-admittance arithmetic and no trigonometry beyond one math.Sincos
// per bus pair per state (stateLoad).
type kernel struct {
	// ops has one record per measurement, in measurement order.
	ops []measOp
	// ends has one record per distinct metered branch end; the P and Q flow
	// measurements of one end share it.
	ends []flowEnd
	// pairLo/pairHi list the distinct bus pairs lo < hi whose angle
	// difference some measurement reads: the two ends of every metered
	// branch end and the neighbours of every injection-metered bus. Pair 0
	// is the zero-angle pair (cos 1, sin +0) that Y-bus diagonal entries
	// point at; its bus fields are unused.
	pairLo, pairHi []int32
	// ytrig[e] is the trig reference (see stateLoad) of Y-bus entry e = (i,k)
	// for θi−θk. It is filled for the rows of injection-metered buses only;
	// no other row is ever read.
	ytrig []int32
	// injBus lists the internal indices of the buses carrying a Pinj or Qinj
	// measurement, ascending.
	injBus []int32
}

// measOp is one measurement resolved to internal indices and to the step
// the passes take at its row.
type measOp struct {
	idx  int32 // internal bus index (bus kinds) or index into kernel.ends (flows)
	step opStep
}

// opStep is what evalLoaded, jacobianLoaded and gradLoaded do at one row: the
// row's measurement alone, or, at the first row of a site's P and Q pair,
// both rows.
type opStep uint8

const (
	stepVmag opStep = iota
	stepAngle
	stepPinj
	stepQinj
	stepPflow
	stepQflow
	// stepInjPair is a Pinj row whose next row is the Qinj row of the same
	// bus, stepFlowPair a Pflow row whose next row is the Qflow row of the
	// same branch end. The passes take such a pair at its P row, and the Q
	// row's step is stepSibling: nothing left to do.
	stepInjPair
	stepFlowPair
	stepSibling
)

// stepOf is the single-row step of each measurement kind.
var stepOf = [...]opStep{Vmag: stepVmag, Angle: stepAngle, Pinj: stepPinj, Qinj: stepQinj, Pflow: stepPflow, Qflow: stepQflow}

// flowEnd is one metered branch end: the measured end first, its four
// two-port admittance constants, and where to find cos/sin of θf−θt.
type flowEnd struct {
	f, t               int32
	trig               int32
	gff, bff, gft, bft float64
}

// EndAdmittance returns the two-port admittance constants seen from one end
// of branch br (the standard transformer model BuildYBus documents): the
// self block (gff, bff) of the measured end and the transfer block (gft,
// bft) towards the other end. The active power entering that end is
// Vf²·gff + Vf·Vt·(gft·cos θft + bft·sin θft).
func EndAdmittance(br grid.Branch, fromSide bool) (gff, bff, gft, bft float64) {
	den := br.R*br.R + br.X*br.X
	gs := br.R / den
	bs := -br.X / den
	tap := br.Tap
	if tap == 0 {
		tap = 1
	}
	s, c := math.Sincos(br.Shift)
	bc2 := br.B / 2
	if fromSide {
		return gs / (tap * tap), (bs + bc2) / (tap * tap),
			-(gs*c - bs*s) / tap, -(bs*c + gs*s) / tap
	}
	return gs, bs + bc2, -(gs*c + bs*s) / tap, -(bs*c - gs*s) / tap
}

// compile fills mod.k from the validated measurement set. ops arrives with
// bus kinds already resolved to internal bus indices and flow kinds carrying
// the branch-end key 2·branch + (0 from side, 1 to side); compile sets every
// step.
func (mod *Model) compile(ops []measOp) {
	n, y, ms := mod.Net, mod.y, mod.Meas
	k := &mod.k
	k.ops = ops

	// pairOf[e] numbers the pair of upper-triangular Y-bus entry e on first
	// use; the sorted Y-bus rows make the lookup a binary search, no map.
	pairOf := make([]int32, y.NNZ())
	k.pairLo = make([]int32, 1, y.NNZ()/2+1)
	k.pairHi = make([]int32, 1, y.NNZ()/2+1)
	trigOf := func(i, j int) int32 {
		lo, hi, dir := i, j, int32(0)
		if i > j {
			lo, hi, dir = j, i, 1
		}
		row := y.ColIdx[y.RowPtr[lo]:y.RowPtr[lo+1]]
		at := sort.SearchInts(row, hi)
		if at == len(row) || row[at] != hi {
			panic(fmt.Sprintf("meas: buses %d and %d are metered as connected but share no admittance entry", lo, hi))
		}
		e := y.RowPtr[lo] + at
		if pairOf[e] == 0 {
			pairOf[e] = int32(len(k.pairLo))
			k.pairLo = append(k.pairLo, int32(lo))
			k.pairHi = append(k.pairHi, int32(hi))
		}
		return 2*pairOf[e] + dir
	}

	// endOf[key] is 1 + the index into k.ends of branch-end key, 0 while the
	// end is unmetered and −1 once counted but not yet built.
	endOf := make([]int32, 2*len(n.Branches))
	injAt := make([]bool, y.N)
	nEnds, nInj := 0, 0
	for i, op := range ops {
		switch ms[i].Kind {
		case Pflow, Qflow:
			if endOf[op.idx] == 0 {
				endOf[op.idx] = -1
				nEnds++
			}
		case Pinj, Qinj:
			if !injAt[op.idx] {
				injAt[op.idx] = true
				nInj++
			}
		}
	}

	k.ends = make([]flowEnd, 0, nEnds)
	for i, op := range ops {
		if kind := ms[i].Kind; kind != Pflow && kind != Qflow {
			continue
		}
		if endOf[op.idx] < 0 {
			br, fromSide := n.Branches[op.idx/2], op.idx%2 == 0
			f, t := n.MustIndex(br.From), n.MustIndex(br.To)
			if !fromSide {
				f, t = t, f
			}
			end := flowEnd{f: int32(f), t: int32(t), trig: trigOf(f, t)}
			end.gff, end.bff, end.gft, end.bft = EndAdmittance(br, fromSide)
			k.ends = append(k.ends, end)
			endOf[op.idx] = int32(len(k.ends))
		}
		ops[i].idx = endOf[op.idx] - 1
	}

	// Every plan we build lists the P and Q rows of one site back to back;
	// rows in any other order (reversed, split, alone, duplicated) stay
	// single steps.
	for i := 0; i < len(ops); i++ {
		kind := ms[i].Kind
		ops[i].step = stepOf[kind]
		if i+1 == len(ops) || ops[i+1].idx != ops[i].idx {
			continue
		}
		switch next := ms[i+1].Kind; {
		case kind == Pinj && next == Qinj:
			ops[i].step = stepInjPair
		case kind == Pflow && next == Qflow:
			ops[i].step = stepFlowPair
		default:
			continue
		}
		i++
		ops[i].step = stepSibling
	}

	if nInj == 0 {
		return
	}
	k.ytrig = make([]int32, y.NNZ())
	k.injBus = make([]int32, 0, nInj)
	for i, metered := range injAt {
		if !metered {
			continue
		}
		k.injBus = append(k.injBus, int32(i))
		for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
			if j := y.ColIdx[e]; j != i {
				k.ytrig[e] = trigOf(i, j)
			}
		}
	}
}

// stateLoad is everything h(x) and H(x) share at one state x: the unpacked
// magnitudes and angles, cos and sin of every pair's angle difference, and
// the bus injections. Loading it is the only place the Gauss–Newton loop
// calls a trigonometric function.
//
// A trig reference r = 2·pair + dir names cos[r>>1] and sin[r]: dir 0 is
// θlo−θhi, dir 1 the reverse. Both directions come from one math.Sincos,
// bit for bit what separate evaluations would give: cos is even and sin odd
// exactly in math's implementation, and a−b = −(b−a) exactly in IEEE
// arithmetic unless the difference is zero, where sin(±0) = ±0 is the
// argument itself.
type stateLoad struct {
	vm, va   []float64 // per bus
	cos, sin []float64 // per pair, two sines each
	p, q     []float64 // per bus, set at injection-metered buses only; nil without any
}

func (mod *Model) newStateLoad() *stateLoad {
	nb, np := mod.Net.N(), len(mod.k.pairLo)
	size := 2*nb + 3*np
	if len(mod.k.injBus) > 0 {
		size += 2 * nb
	}
	buf := make([]float64, size)
	cut := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	st := &stateLoad{vm: cut(nb), va: cut(nb), cos: cut(np), sin: cut(2 * np)}
	st.cos[0] = 1
	if len(mod.k.injBus) > 0 {
		st.p, st.q = cut(nb), cut(nb)
	}
	return st
}

// load fills st for the state vector x.
func (mod *Model) load(st *stateLoad, x []float64) {
	k := &mod.k
	mod.unpackState(x, st.vm, st.va)
	vm, va := st.vm, st.va
	for p := 1; p < len(k.pairLo); p++ {
		lo, hi := k.pairLo[p], k.pairHi[p]
		th := va[lo] - va[hi]
		s, c := math.Sincos(th)
		st.cos[p] = c
		st.sin[2*p] = s
		if th == 0 {
			st.sin[2*p+1] = va[hi] - va[lo]
		} else {
			st.sin[2*p+1] = -s
		}
	}

	// Bus injections, accumulated in Y-bus row order (diagonal included,
	// through the zero-angle pair) exactly as powerflow does.
	y := mod.y
	for _, i := range k.injBus {
		var pi, qi float64
		for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
			g, b, r := y.G[e], y.B[e], k.ytrig[e]
			c, s := st.cos[r>>1], st.sin[r]
			vj := vm[y.ColIdx[e]]
			pi += vj * (g*c + b*s)
			qi += vj * (g*s - b*c)
		}
		st.p[i] = vm[i] * pi
		st.q[i] = vm[i] * qi
	}
}

// evalLoaded writes h(x) into h from the loaded state. A flow pair reads the
// end's magnitudes and trig once for both rows.
func (mod *Model) evalLoaded(st *stateLoad, h []float64) {
	k := &mod.k
	for mi, op := range k.ops {
		switch op.step {
		case stepVmag:
			h[mi] = st.vm[op.idx]
		case stepAngle:
			h[mi] = st.va[op.idx]
		case stepPinj:
			h[mi] = st.p[op.idx]
		case stepQinj:
			h[mi] = st.q[op.idx]
		case stepInjPair:
			h[mi], h[mi+1] = st.p[op.idx], st.q[op.idx]
		case stepPflow:
			e := &k.ends[op.idx]
			vf, vt := st.vm[e.f], st.vm[e.t]
			c, s := st.cos[e.trig>>1], st.sin[e.trig]
			h[mi] = vf*vf*e.gff + vf*vt*(e.gft*c+e.bft*s)
		case stepQflow:
			e := &k.ends[op.idx]
			vf, vt := st.vm[e.f], st.vm[e.t]
			c, s := st.cos[e.trig>>1], st.sin[e.trig]
			h[mi] = -vf*vf*e.bff + vf*vt*(e.gft*s-e.bft*c)
		case stepFlowPair:
			e := &k.ends[op.idx]
			vf, vt := st.vm[e.f], st.vm[e.t]
			c, s := st.cos[e.trig>>1], st.sin[e.trig]
			vv := vf * vt
			h[mi] = vf*vf*e.gff + vv*(e.gft*c+e.bft*s)
			h[mi+1] = -vf*vf*e.bff + vv*(e.gft*s-e.bft*c)
		}
	}
}

// jacobianLoaded writes every Jacobian entry at the loaded state:
// emission number c goes to val[slots[c]]. Entries with no column (the
// reference angle) carry a slot past the matrix's values, so the loop
// stores unconditionally. It returns the number of emissions.
//
// A row emits in a fixed order: a Vmag or Angle row its one derivative, an
// injection row ∂/∂θj then ∂/∂Vj for each bus j of its Y-bus row, a flow row
// ∂/∂θf, ∂/∂θt, ∂/∂Vf, ∂/∂Vt. NewJacobianPlan lays the slot map out in that
// order, so the two change together; Refresh checks that their emission
// counts agree. The P and Q rows of one site emit the same columns, which
// gradLoaded relies on.
//
// A pair is one step. An injection pair walks the Y-bus row once and forms
// u = g·cos + b·sin and v = g·sin − b·cos once per entry for all four
// derivatives; a flow pair reads the end's magnitudes and trig once. Every
// derivative keeps the operations, and so the bits, of its single-row
// spelling.
func (mod *Model) jacobianLoaded(st *stateLoad, val []float64, slots []int32) int {
	k, y, vm := &mod.k, mod.y, st.vm
	c := 0
	for _, op := range k.ops {
		switch op.step {
		case stepVmag, stepAngle:
			val[slots[c]] = 1
			c++
		case stepPinj:
			i := int(op.idx)
			vi := vm[i]
			for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
				j, g, b := y.ColIdx[e], y.G[e], y.B[e]
				if j == i {
					val[slots[c]] = -st.q[i] - b*vi*vi
					val[slots[c+1]] = st.p[i]/vi + g*vi
				} else {
					r := k.ytrig[e]
					cs, sn := st.cos[r>>1], st.sin[r]
					val[slots[c]] = vi * vm[j] * (g*sn - b*cs)
					val[slots[c+1]] = vi * (g*cs + b*sn)
				}
				c += 2
			}
		case stepQinj:
			i := int(op.idx)
			vi := vm[i]
			for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
				j, g, b := y.ColIdx[e], y.G[e], y.B[e]
				if j == i {
					val[slots[c]] = st.p[i] - g*vi*vi
					val[slots[c+1]] = st.q[i]/vi - b*vi
				} else {
					r := k.ytrig[e]
					cs, sn := st.cos[r>>1], st.sin[r]
					val[slots[c]] = -vi * vm[j] * (g*cs + b*sn)
					val[slots[c+1]] = vi * (g*sn - b*cs)
				}
				c += 2
			}
		case stepInjPair:
			i := int(op.idx)
			vi := vm[i]
			lo, hi := y.RowPtr[i], y.RowPtr[i+1]
			cq := c + 2*(hi-lo) // the Qinj row's first emission
			for e := lo; e < hi; e++ {
				j, g, b := y.ColIdx[e], y.G[e], y.B[e]
				if j == i {
					val[slots[c]] = -st.q[i] - b*vi*vi
					val[slots[c+1]] = st.p[i]/vi + g*vi
					val[slots[cq]] = st.p[i] - g*vi*vi
					val[slots[cq+1]] = st.q[i]/vi - b*vi
				} else {
					r := k.ytrig[e]
					cs, sn := st.cos[r>>1], st.sin[r]
					u, v := g*cs+b*sn, g*sn-b*cs
					vv := vi * vm[j]
					val[slots[c]] = vv * v
					val[slots[c+1]] = vi * u
					val[slots[cq]] = -vv * u
					val[slots[cq+1]] = vi * v
				}
				c += 2
				cq += 2
			}
			c = cq
		case stepPflow, stepQflow, stepFlowPair:
			e := &k.ends[op.idx]
			vf, vt := vm[e.f], vm[e.t]
			cs, sn := st.cos[e.trig>>1], st.sin[e.trig]
			vv := vf * vt
			if op.step != stepQflow {
				// Pf = Vf²·gff + Vf·Vt·(gft·c + bft·s)
				a := e.gft*cs + e.bft*sn
				dThf := vv * (-e.gft*sn + e.bft*cs)
				val[slots[c]] = dThf
				val[slots[c+1]] = -dThf
				val[slots[c+2]] = 2*vf*e.gff + vt*a
				val[slots[c+3]] = vf * a
				c += 4
				if op.step == stepPflow {
					continue
				}
			}
			// Qf = −Vf²·bff + Vf·Vt·(gft·s − bft·c)
			a := e.gft*sn - e.bft*cs
			dThf := vv * (e.gft*cs + e.bft*sn)
			val[slots[c]] = dThf
			val[slots[c+1]] = -dThf
			val[slots[c+2]] = -2*vf*e.bff + vt*a
			val[slots[c+3]] = vf * a
			c += 4
		}
	}
	return c
}

// residual is what gradLoaded reads and writes beside the gradient: measured
// values and weights in, h(x) and r = z − h(x) out.
type residual struct {
	z, w, h, r []float64
}

// weigh records measurement mi's value h and returns w·r, the factor its row
// of H enters the gradient with, and w·r·r, its term of J.
func (rs *residual) weigh(mi int, h float64) (wr, jr float64) {
	r := rs.z[mi] - h
	rs.h[mi], rs.r[mi] = h, r
	wr = rs.w[mi] * r
	return wr, wr * r
}

// gradLoaded is the fused pass of a lagged Gauss–Newton step: evalLoaded,
// the residual and H(x)ᵀ·W·r in one walk over the measurements, H never
// written. Emission number c, the derivative d that jacobianLoaded stores at
// val[slots[c]], is added into grad[cols[c]] as d·(w·r): the product and, row
// after row, the order sparse.GainRHSInto sums in, a row with w·r == 0
// adding nothing as it adds nothing there — so grad is that sum bit for bit.
// Entries with no column carry the index of grad's last element. The
// derivatives are jacobianLoaded's, spelled a second time (a row buffer
// between one emitter and two sinks cost the Refresh pass half its speed);
// requireGradMatchesRefresh, on every fixture of TestKernelMatchesReference,
// holds the two together. It returns the number of emissions and J = Σ w·r²,
// summed in measurement order.
//
// A pair is one step, as in jacobianLoaded. Its two rows are adjacent and
// emit the same columns, and a row never lists a column twice, so each
// element of grad still receives the P row's product and then the Q row's,
// with nothing between: the order GainRHSInto adds them in. A half weighted
// to zero adds nothing and leaves the other half to its single-row walk.
func (mod *Model) gradLoaded(st *stateLoad, grad []float64, cols []int32, rs *residual) (int, float64) {
	k, y, vm := &mod.k, mod.y, st.vm
	c, obj := 0, 0.0
	for mi, op := range k.ops {
		switch op.step {
		case stepVmag:
			wr, jr := rs.weigh(mi, vm[op.idx])
			obj += jr
			grad[cols[c]] += wr
			c++
		case stepAngle:
			wr, jr := rs.weigh(mi, st.va[op.idx])
			obj += jr
			grad[cols[c]] += wr
			c++
		case stepPinj, stepQinj, stepInjPair:
			i := int(op.idx)
			vi, pi, qi := vm[i], st.p[i], st.q[i]
			lo, hi := y.RowPtr[i], y.RowPtr[i+1]
			row := cols[c : c+2*(hi-lo)]
			c += len(row)
			var wrP, wrQ, jr float64
			switch op.step {
			case stepPinj:
				wrP, jr = rs.weigh(mi, pi)
			case stepQinj:
				wrQ, jr = rs.weigh(mi, qi)
			default:
				// The Qinj sibling emits row's columns again.
				c += len(row)
				wrP, jr = rs.weigh(mi, pi)
				obj += jr
				wrQ, jr = rs.weigh(mi+1, qi)
			}
			obj += jr
			switch {
			case wrP != 0 && wrQ != 0:
				for e := lo; e < hi; e++ {
					j, g, b := y.ColIdx[e], y.G[e], y.B[e]
					var dThP, dVP, dThQ, dVQ float64
					if j == i {
						dThP, dVP = -qi-b*vi*vi, pi/vi+g*vi
						dThQ, dVQ = pi-g*vi*vi, qi/vi-b*vi
					} else {
						r := k.ytrig[e]
						cs, sn := st.cos[r>>1], st.sin[r]
						u, v := g*cs+b*sn, g*sn-b*cs
						vv := vi * vm[j]
						dThP, dVP = vv*v, vi*u
						dThQ, dVQ = -vv*u, vi*v
					}
					grad[row[0]] = grad[row[0]] + dThP*wrP + dThQ*wrQ
					grad[row[1]] = grad[row[1]] + dVP*wrP + dVQ*wrQ
					row = row[2:]
				}
			case wrP != 0:
				for e := lo; e < hi; e++ {
					j, g, b := y.ColIdx[e], y.G[e], y.B[e]
					var dTh, dV float64
					if j == i {
						dTh, dV = -qi-b*vi*vi, pi/vi+g*vi
					} else {
						r := k.ytrig[e]
						cs, sn := st.cos[r>>1], st.sin[r]
						dTh, dV = vi*vm[j]*(g*sn-b*cs), vi*(g*cs+b*sn)
					}
					grad[row[0]] += dTh * wrP
					grad[row[1]] += dV * wrP
					row = row[2:]
				}
			case wrQ != 0:
				for e := lo; e < hi; e++ {
					j, g, b := y.ColIdx[e], y.G[e], y.B[e]
					var dTh, dV float64
					if j == i {
						dTh, dV = pi-g*vi*vi, qi/vi-b*vi
					} else {
						r := k.ytrig[e]
						cs, sn := st.cos[r>>1], st.sin[r]
						dTh, dV = -vi*vm[j]*(g*cs+b*sn), vi*(g*sn-b*cs)
					}
					grad[row[0]] += dTh * wrQ
					grad[row[1]] += dV * wrQ
					row = row[2:]
				}
			}
		case stepPflow:
			e := &k.ends[op.idx]
			vf, vt := vm[e.f], vm[e.t]
			cs, sn := st.cos[e.trig>>1], st.sin[e.trig]
			a := e.gft*cs + e.bft*sn
			row := cols[c : c+4]
			c += 4
			wr, jr := rs.weigh(mi, vf*vf*e.gff+vf*vt*a)
			obj += jr
			if wr != 0 {
				dThf := vf * vt * (-e.gft*sn + e.bft*cs)
				grad[row[0]] += dThf * wr
				grad[row[1]] += -dThf * wr
				grad[row[2]] += (2*vf*e.gff + vt*a) * wr
				grad[row[3]] += vf * a * wr
			}
		case stepQflow:
			e := &k.ends[op.idx]
			vf, vt := vm[e.f], vm[e.t]
			cs, sn := st.cos[e.trig>>1], st.sin[e.trig]
			a := e.gft*sn - e.bft*cs
			row := cols[c : c+4]
			c += 4
			wr, jr := rs.weigh(mi, -vf*vf*e.bff+vf*vt*a)
			obj += jr
			if wr != 0 {
				dThf := vf * vt * (e.gft*cs + e.bft*sn)
				grad[row[0]] += dThf * wr
				grad[row[1]] += -dThf * wr
				grad[row[2]] += (-2*vf*e.bff + vt*a) * wr
				grad[row[3]] += vf * a * wr
			}
		case stepFlowPair:
			e := &k.ends[op.idx]
			vf, vt := vm[e.f], vm[e.t]
			cs, sn := st.cos[e.trig>>1], st.sin[e.trig]
			vv := vf * vt
			aP, aQ := e.gft*cs+e.bft*sn, e.gft*sn-e.bft*cs
			// The Qflow sibling emits row's columns again.
			row := cols[c : c+4]
			c += 8
			wrP, jr := rs.weigh(mi, vf*vf*e.gff+vv*aP)
			obj += jr
			wrQ, jr := rs.weigh(mi+1, -vf*vf*e.bff+vv*aQ)
			obj += jr
			// dθf, dVf and dVt of each half; dθt is −dθf.
			dThP, dVfP, dVtP := vv*(-e.gft*sn+e.bft*cs), 2*vf*e.gff+vt*aP, vf*aP
			dThQ, dVfQ, dVtQ := vv*(e.gft*cs+e.bft*sn), -2*vf*e.bff+vt*aQ, vf*aQ
			if wrP != 0 && wrQ != 0 {
				grad[row[0]] = grad[row[0]] + dThP*wrP + dThQ*wrQ
				grad[row[1]] = grad[row[1]] + -dThP*wrP + -dThQ*wrQ
				grad[row[2]] = grad[row[2]] + dVfP*wrP + dVfQ*wrQ
				grad[row[3]] = grad[row[3]] + dVtP*wrP + dVtQ*wrQ
				continue
			}
			if wrP != 0 {
				grad[row[0]] += dThP * wrP
				grad[row[1]] += -dThP * wrP
				grad[row[2]] += dVfP * wrP
				grad[row[3]] += dVtP * wrP
			}
			if wrQ != 0 {
				grad[row[0]] += dThQ * wrQ
				grad[row[1]] += -dThQ * wrQ
				grad[row[2]] += dVfQ * wrQ
				grad[row[3]] += dVtQ * wrQ
			}
		}
	}
	return c, obj
}
