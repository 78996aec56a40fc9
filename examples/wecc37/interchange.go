package main

import (
	"fmt"

	gridse "repro"
	"repro/internal/meas"
)

// interchange reports one subsystem's (balancing authority's) tie-line
// power accounting from an estimated system state — the quantity area
// operators schedule and settle against.
type interchange struct {
	Subsystem int
	// NetExportMW is the net active power leaving the subsystem over its
	// tie lines, in MW (negative = net import).
	NetExportMW float64
	// TieFlowsMW lists the per-tie-line flows, oriented out of the
	// subsystem, aligned with Decomposition.TieLinesOf(Subsystem).
	TieFlowsMW []float64
}

// interchangeReport computes every subsystem's net tie-line interchange
// from a solved or estimated state, evaluating the full AC branch model
// once for all tie lines.
func interchangeReport(d *gridse.Decomposition, st gridse.State) ([]interchange, error) {
	// One flow measurement per tie-line end: the To end's outward flow
	// differs from the From end's by the line's losses, so meter both.
	type end struct {
		branch int
		from   bool
	}
	var ms []meas.Measurement
	pos := make(map[end]int, 2*len(d.TieLines))
	for _, tl := range d.TieLines {
		for _, from := range []bool{true, false} {
			pos[end{tl.Branch, from}] = len(ms)
			ms = append(ms, meas.Measurement{Kind: meas.Pflow, Branch: tl.Branch, FromSide: from, Sigma: 1})
		}
	}
	ref := d.Net.SlackIndex()
	mod, err := meas.NewModel(d.Net, ms, ref, st.Va[ref])
	if err != nil {
		return nil, fmt.Errorf("interchange model: %w", err)
	}
	h := mod.Eval(mod.StateToVec(st))

	base := d.Net.BaseMVA
	out := make([]interchange, len(d.Subsystems))
	for si := range d.Subsystems {
		rep := interchange{Subsystem: si}
		for _, tl := range d.TieLinesOf(si) {
			flow := h[pos[end{tl.Branch, tl.SubA == si}]] * base
			rep.TieFlowsMW = append(rep.TieFlowsMW, flow)
			rep.NetExportMW += flow
		}
		out[si] = rep
	}
	return out, nil
}
