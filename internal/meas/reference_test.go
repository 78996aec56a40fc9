package meas

import (
	"math"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// The reference evaluator: the map-lookup, per-call-trigonometry h(x) and
// H(x) the compiled kernel replaced, kept as the oracle the kernel must
// match bit for bit (TestKernelMatchesReference). It resolves every bus
// number through the network's map, rebuilds the branch admittance on every
// flow, and calls math.Cos and math.Sin per entry.

func refBranchY(br grid.Branch) (gff, bff, gft, bft, gtf, btf, gtt, btt float64) {
	den := br.R*br.R + br.X*br.X
	gs := br.R / den
	bs := -br.X / den
	tap := br.Tap
	if tap == 0 {
		tap = 1
	}
	c, s := math.Cos(br.Shift), math.Sin(br.Shift)
	bc2 := br.B / 2
	gff = gs / (tap * tap)
	bff = (bs + bc2) / (tap * tap)
	gtt = gs
	btt = bs + bc2
	gft = -(gs*c - bs*s) / tap
	bft = -(bs*c + gs*s) / tap
	gtf = -(gs*c + bs*s) / tap
	btf = -(bs*c - gs*s) / tap
	return
}

// refEnd returns the measured-end-first indices and admittances of a flow.
func refEnd(n *grid.Network, m Measurement) (f, t int, gff, bff, gft, bft float64) {
	br := n.Branches[m.Branch]
	f, t = n.MustIndex(br.From), n.MustIndex(br.To)
	gff, bff, gft, bft, gtf, btf, gtt, btt := refBranchY(br)
	if !m.FromSide {
		f, t = t, f
		gff, bff, gft, bft = gtt, btt, gtf, btf
	}
	return
}

func refInjections(y *grid.YBus, vm, va []float64) (p, q []float64) {
	p, q = make([]float64, y.N), make([]float64, y.N)
	for i := 0; i < y.N; i++ {
		var pi, qi float64
		y.Row(i, func(j int, g, b float64) {
			th := va[i] - va[j]
			c, s := math.Cos(th), math.Sin(th)
			pi += vm[j] * (g*c + b*s)
			qi += vm[j] * (g*s - b*c)
		})
		p[i] = vm[i] * pi
		q[i] = vm[i] * qi
	}
	return
}

func refEval(mod *Model, x []float64) []float64 {
	n := mod.Net
	st := mod.VecToState(x)
	vm, va := st.Vm, st.Va
	pc, qc := refInjections(grid.BuildYBus(n), vm, va)
	h := make([]float64, len(mod.Meas))
	for mi, m := range mod.Meas {
		switch m.Kind {
		case Vmag:
			h[mi] = vm[n.MustIndex(m.Bus)]
		case Angle:
			h[mi] = va[n.MustIndex(m.Bus)]
		case Pinj:
			h[mi] = pc[n.MustIndex(m.Bus)]
		case Qinj:
			h[mi] = qc[n.MustIndex(m.Bus)]
		case Pflow, Qflow:
			f, t, gff, bff, gft, bft := refEnd(n, m)
			vf, vt := vm[f], vm[t]
			th := va[f] - va[t]
			c, s := math.Cos(th), math.Sin(th)
			if m.Kind == Pflow {
				h[mi] = vf*vf*gff + vf*vt*(gft*c+bft*s)
			} else {
				h[mi] = -vf*vf*bff + vf*vt*(gft*s-bft*c)
			}
		}
	}
	return h
}

func refJacobian(mod *Model, x []float64) *sparse.CSR {
	n := mod.Net
	y := grid.BuildYBus(n)
	st := mod.VecToState(x)
	vm, va := st.Vm, st.Va
	pc, qc := refInjections(y, vm, va)
	coo := sparse.NewCOO(len(mod.Meas), mod.NState())
	addA := func(row, bus int, v float64) { // d/dθ_bus
		if p := mod.angPos[bus]; p >= 0 {
			coo.Add(row, p, v)
		}
	}
	addV := func(row, bus int, v float64) { // d/dV_bus
		coo.Add(row, mod.nAngles+bus, v)
	}
	for mi, m := range mod.Meas {
		switch m.Kind {
		case Vmag:
			addV(mi, n.MustIndex(m.Bus), 1)
		case Angle:
			addA(mi, n.MustIndex(m.Bus), 1)
		case Pinj:
			i := n.MustIndex(m.Bus)
			vi := vm[i]
			y.Row(i, func(k int, g, b float64) {
				if k == i {
					addA(mi, i, -qc[i]-b*vi*vi)
					addV(mi, i, pc[i]/vi+g*vi)
					return
				}
				th := va[i] - va[k]
				c, s := math.Cos(th), math.Sin(th)
				addA(mi, k, vi*vm[k]*(g*s-b*c))
				addV(mi, k, vi*(g*c+b*s))
			})
		case Qinj:
			i := n.MustIndex(m.Bus)
			vi := vm[i]
			y.Row(i, func(k int, g, b float64) {
				if k == i {
					addA(mi, i, pc[i]-g*vi*vi)
					addV(mi, i, qc[i]/vi-b*vi)
					return
				}
				th := va[i] - va[k]
				c, s := math.Cos(th), math.Sin(th)
				addA(mi, k, -vi*vm[k]*(g*c+b*s))
				addV(mi, k, vi*(g*s-b*c))
			})
		case Pflow, Qflow:
			f, t, gff, bff, gft, bft := refEnd(n, m)
			vf, vt := vm[f], vm[t]
			th := va[f] - va[t]
			c, s := math.Cos(th), math.Sin(th)
			if m.Kind == Pflow {
				dThf := vf * vt * (-gft*s + bft*c)
				addA(mi, f, dThf)
				addA(mi, t, -dThf)
				addV(mi, f, 2*vf*gff+vt*(gft*c+bft*s))
				addV(mi, t, vf*(gft*c+bft*s))
			} else {
				dThf := vf * vt * (gft*c + bft*s)
				addA(mi, f, dThf)
				addA(mi, t, -dThf)
				addV(mi, f, -2*vf*bff+vt*(gft*s-bft*c))
				addV(mi, t, vf*(gft*s-bft*c))
			}
		}
	}
	return coo.ToCSR()
}
