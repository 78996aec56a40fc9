package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/meas"
	"repro/internal/medici"
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
// every subsystem solves locally (as in DSE Step 1), then each site sends
// its subsystems' full solved states to the centralized coordinator, which
// combines them into the system-wide state. There is no peer-to-peer
// Step 2; the coordinator is the single aggregation point.
//
// The context governs the run: cancellation aborts local estimation at
// the next Gauss-Newton iteration and unblocks the coordinator's receive
// loop. TotalTimeout (when set) derives an overall deadline from ctx.
func RunHierarchical(ctx context.Context, d *Decomposition, global []meas.Measurement, opts DistributedOptions) (*HierarchicalResult, error) {
	p := opts.Clusters
	if p <= 0 {
		p = 3
	}
	m := len(d.Subsystems)
	if p > m {
		return nil, fmt.Errorf("core: %d clusters for %d subsystems", p, m)
	}
	if opts.TotalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TotalTimeout)
		defer cancel()
	}
	start := time.Now()

	tb, err := cluster.NewTestbed(p, opts.WorkersPerSite, opts.Transport)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	// The reliability coordinator gets its own endpoint, like any estimator.
	coord, err := medici.NewMWClient("coordinator", "127.0.0.1:0", tb.Registry, opts.Transport, medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		return nil, err
	}
	defer func() {
		tb.HangUp() // dialing ends first
		coord.Close()
	}()

	mapping, err := d.MapStep1(p, opts.Map)
	if err != nil {
		return nil, err
	}

	sess, release := d.sessionFor(opts.DSE)
	defer release()
	opts.DSE = sess.beginRun(opts.DSE)

	res := &HierarchicalResult{Local: make([]*wls.Result, m)}
	probs := make([]*Subproblem, m)
	err = runOnSites(ctx, "local estimation", tb, mapping.Assign, func(ctx context.Context, si int, site *cluster.Site) error {
		sp, eng, err := sess.step1(si, global)
		if err != nil {
			return err
		}
		probs[si] = sp
		out := site.RunJobs(ctx, []cluster.EstimationJob{{ID: si, Model: sp.Model, Opts: opts.DSE.WLS, Engine: eng}})
		if out[0].Err != nil {
			return fmt.Errorf("core: hierarchical subsystem %d: %w", si, out[0].Err)
		}
		res.Local[si] = out[0].Result

		// Ship the full own-bus solution to the coordinator.
		pkt := PseudoPacket{FromSub: si}
		for _, id := range sp.OwnBuses {
			li := sp.Net.MustIndex(id)
			pkt.States = append(pkt.States, BusState{
				BusID: id,
				Vm:    out[0].Result.State.Vm[li],
				Va:    out[0].Result.State.Va[li],
			})
		}
		payload, err := EncodePacket(pkt)
		if err != nil {
			return err
		}
		return site.Client().SendURL(ctx, coord.URL(), payload)
	})
	if err != nil {
		return nil, err
	}

	// Coordinator: collect one packet per subsystem and assemble the state.
	nb := d.Net.N()
	res.State = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	for k := 0; k < m; k++ {
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
		if err := sess.refineBoundary(ctx, global, &res.State, opts.DSE.WLS); err != nil {
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
// context is checked between Gauss-Newton iterations.
func CentralizedEstimate(ctx context.Context, n *grid.Network, global []meas.Measurement, opts wls.Options) (*wls.Result, error) {
	ref := n.SlackIndex()
	refAngle, ok := findRefAngle(global, n.Buses[ref].ID)
	if !ok {
		refAngle = 0
	}
	mod, err := meas.NewModel(n, global, ref, refAngle)
	if err != nil {
		return nil, err
	}
	return wls.EstimateCtx(ctx, mod, opts)
}
