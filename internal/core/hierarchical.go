package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// HierarchicalResult reports a hierarchical state-estimation run: local
// estimation at the balancing-authority level, solutions forwarded to a
// reliability-coordinator site that assembles the regional picture (the
// top layer of the paper's Figure 1).
type HierarchicalResult struct {
	State powerflow.State
	Local []*wls.Result
	// CoordinatorBytes is the volume shipped up to the coordinator.
	CoordinatorBytes int
	Duration         time.Duration
}

// RunHierarchical executes hierarchical state estimation on the testbed:
// every subsystem solves locally — the DSE sequence's Step-1 phase, mapped
// and placed on the sites as RunDistributed maps and places it, NoMapping
// included — then each site sends its subsystems' full solved states to the
// centralized coordinator, which combines them into the system-wide state. There is no peer-to-peer
// Step 2, so DSEOptions.Rounds has nothing to count; the coordinator is the
// single aggregation point. It runs on the testbed d keeps for
// RunDistributed, which keeps the coordinator's endpoint too.
//
// The context governs the run: cancellation aborts local estimation at
// the next Gauss-Newton iteration and unblocks the coordinator's receive
// loop. PhaseTimeout (when set) derives a deadline from ctx for the local
// estimation and another for the ship-up.
func RunHierarchical(ctx context.Context, d *Decomposition, global []meas.Measurement, opts DistributedOptions) (_ *HierarchicalResult, err error) {
	start := time.Now()
	pl, err := placeOnTestbed(d, opts)
	if err != nil {
		return nil, err
	}
	defer func() { pl.release(err != nil) }()
	// The reliability coordinator gets its own endpoint, like any
	// estimator, and keeps it with the testbed.
	coord, err := pl.coordinator()
	if err != nil {
		return nil, err
	}

	if _, err := pl.mapStep1(); err != nil {
		return nil, err
	}

	sess := d.sessionFor(opts.DSE)
	defer sess.mu.Unlock()
	dseOpts := sess.beginRun(pl.opts.DSE)
	defer sess.endRun()
	probs, local, err := sess.runStep1(ctx, pl, global, dseOpts)
	if err != nil {
		return nil, err
	}
	res := &HierarchicalResult{Local: local}

	// Every site ships its subsystems' full own-bus solutions up.
	err = pl.forEach(ctx, "ship-up", func(ctx context.Context, si int) error {
		sp, st := probs[si], local[si].State
		pkt := PseudoPacket{FromSub: si}
		for _, id := range sp.OwnBuses {
			li := sp.Net.MustIndex(id)
			pkt.States = append(pkt.States, BusState{BusID: id, Vm: st.Vm[li], Va: st.Va[li]})
		}
		payload, err := EncodePacket(pkt)
		if err != nil {
			return err
		}
		return pl.tb.Sites[pl.assign[si]].Client().SendURL(ctx, coord.URL(), payload)
	})
	if err != nil {
		return nil, err
	}

	// Coordinator: collect one packet per subsystem and assemble the state.
	nb := d.Net.N()
	res.State = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	for range local {
		msg, err := coord.Recv(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: coordinator receive: %w", err)
		}
		res.CoordinatorBytes += len(msg)
		pkt, err := DecodePacket(msg)
		if err != nil {
			return nil, err
		}
		for _, bs := range pkt.States {
			gi := d.Net.MustIndex(bs.BusID)
			res.State.Vm[gi] = bs.Vm
			res.State.Va[gi] = bs.Va
		}
	}
	if opts.HierarchicalRefine {
		if err := sess.refineBoundary(ctx, global, &res.State, dseOpts.WLS); err != nil {
			return nil, fmt.Errorf("core: coordinator boundary refinement: %w", err)
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// CentralizedEstimate runs the conventional single-control-center WLS
// estimation on the full network — the baseline the distributed
// architecture is compared against. The reference angle is taken from a
// PMU angle measurement at the slack bus when present, else zero. The
// context is checked between Gauss-Newton iterations. It is
// wls.EstimateFrame, which starts the LDLᵀ analysis beside the model build.
func CentralizedEstimate(ctx context.Context, n *grid.Network, global []meas.Measurement, opts wls.Options) (*wls.Result, error) {
	ref := n.SlackIndex()
	refAngle, ok := findRefAngle(global, n.Buses[ref].ID)
	if !ok {
		refAngle = 0
	}
	return wls.EstimateFrame(ctx, n, global, ref, refAngle, opts)
}
