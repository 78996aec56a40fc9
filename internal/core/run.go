package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/meas"
	"repro/internal/medici"
	"repro/internal/powerflow"
	"repro/internal/wls"
)

// DistributedOptions configures a full architecture run on a simulated
// multi-cluster testbed.
type DistributedOptions struct {
	// Clusters is the number of HPC sites (the paper uses 3).
	Clusters int
	// WorkersPerSite sets each site's parallel-solver width.
	WorkersPerSite int
	// Transport connects the sites (nil = plain loopback TCP; use a
	// cluster.ShapedTransport for a lab-network profile).
	Transport medici.Transport
	// Map configures the cost-model-driven mapping; see also NoMapping.
	Map MapOptions
	// NoMapping replaces the METIS-style mapping with the naive contiguous
	// assignment (subsystem i -> cluster i·p/m), the paper's Table II
	// "w/o mapping" baseline.
	NoMapping bool
	// HierarchicalRefine makes the hierarchical coordinator re-estimate the
	// boundary states on the tie-line system instead of just concatenating
	// subsystem solutions (RunHierarchical only).
	HierarchicalRefine bool
	// DSE configures the estimation itself.
	DSE DSEOptions
	// PhaseTimeout bounds each individual phase (acquire, step 1,
	// redistribute, exchange, step 2) with its own deadline, derived from
	// the run context. Zero means no per-phase deadline.
	PhaseTimeout time.Duration
	// TotalTimeout bounds the whole run with a deadline derived from the
	// run context. Zero means no overall deadline beyond the caller's ctx.
	TotalTimeout time.Duration
}

// phaseContext derives the context governing one named phase: PhaseTimeout
// (when set) puts a deadline on the phase. The returned cancel must always
// be called.
func (o DistributedOptions) phaseContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.PhaseTimeout > 0 {
		return context.WithTimeout(ctx, o.PhaseTimeout)
	}
	return context.WithCancel(ctx)
}

// PhaseTimings breaks down a distributed run.
type PhaseTimings struct {
	Map          time.Duration // mapping before Step 1
	Acquire      time.Duration // raw-measurement fetch from the data source
	Step1        time.Duration
	Remap        time.Duration // repartition before Step 2
	Redistribute time.Duration // raw-data migration for re-mapped subsystems
	Exchange     time.Duration // pseudo-measurement exchange via middleware
	Step2        time.Duration
	Aggregate    time.Duration
	Total        time.Duration
}

// DistributedResult reports a full architecture run.
type DistributedResult struct {
	State        powerflow.State
	Step1Mapping *Mapping
	Step2Mapping *Mapping
	Migrated     []int // subsystems whose cluster changed before Step 2
	Timings      PhaseTimings
	// WireBytes counts every byte handed to the middleware (raw-data
	// acquisition + pseudo exchange + data redistribution).
	WireBytes int
	// WireMessages counts middleware sends: one data request per site that
	// hosts a subsystem, and per phase one bundle per ordered pair of sites
	// with anything to ship between them — at most p + 2·p(p−1) whatever the
	// mapping, which decides the bytes.
	WireMessages int
	// Step1 and Step2 hold per-subsystem estimation results.
	Step1, Step2 []*wls.Result
}

// RunDistributed executes the paper's full architecture flow on a simulated
// testbed: map subsystems to clusters (Figure 4), run DSE Step 1 on each
// site, remap (Figure 5), redistribute raw data for migrated subsystems,
// exchange pseudo-measurements through MeDICi-style pipelines, run DSE
// Step 2, and aggregate the system-wide solution.
//
// The context governs the entire run: cancellation aborts in-flight site
// work at the next Gauss-Newton iteration and unblocks any middleware
// receive, so the call returns promptly with a wrapped ctx.Err().
// DistributedOptions.TotalTimeout and PhaseTimeout derive additional
// deadlines from ctx; with both zero and an unexpiring ctx, behavior is
// identical to the pre-context implementation.
//
// The testbed flow is one Step-2 round: DSEOptions.Rounds above 1 is an
// error here, not a silently shorter run (RunDSE honours it).
func RunDistributed(ctx context.Context, d *Decomposition, global []meas.Measurement, opts DistributedOptions) (*DistributedResult, error) {
	p := opts.Clusters
	if p <= 0 {
		p = 3
	}
	m := len(d.Subsystems)
	if p > m {
		return nil, fmt.Errorf("core: %d clusters for %d subsystems", p, m)
	}
	if opts.DSE.Rounds > 1 {
		return nil, fmt.Errorf("core: DSEOptions.Rounds = %d: RunDistributed runs one Step-2 round (RunDSE runs more)", opts.DSE.Rounds)
	}
	if opts.TotalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TotalTimeout)
		defer cancel()
	}
	totalStart := time.Now()

	tb, err := cluster.NewTestbed(p, opts.WorkersPerSite, opts.Transport)
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	res := &DistributedResult{
		Step1: make([]*wls.Result, m),
		Step2: make([]*wls.Result, m),
	}

	// --- Mapping before Step 1 (Figure 4). ---
	start := time.Now()
	if opts.NoMapping {
		assign := make([]int, m)
		for si := range assign {
			assign[si] = si * p / m
		}
		g := d.Graph()
		res.Step1Mapping = &Mapping{Assign: assign, Imbalance: g.Imbalance(assign, p), EdgeCut: g.EdgeCut(assign)}
	} else {
		res.Step1Mapping, err = d.MapStep1(p, opts.Map)
		if err != nil {
			return nil, err
		}
	}
	res.Timings.Map = time.Since(start)

	// --- Raw-data acquisition: each site fetches its subsystems' SCADA
	// measurements from the data source through the middleware (the
	// Figure 1 path: data source -> middleware -> data processor). ---
	sess, release := d.sessionFor(opts.DSE)
	defer release()
	opts.DSE = sess.beginRun(opts.DSE)
	probs1 := make([]*Subproblem, m)
	engs1 := make([]*wls.Engine, m)
	for si := 0; si < m; si++ {
		sp, eng, err := sess.step1(si, global)
		if err != nil {
			return nil, err
		}
		probs1[si], engs1[si] = sp, eng
	}
	start = time.Now()
	source, err := medici.NewDataServer(opts.Transport, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		subs, err := parseSubRequest(req, m)
		if err != nil {
			return nil, err
		}
		sets := make([][]meas.Measurement, len(subs))
		for k, si := range subs {
			sets[k] = probs1[si].Model.Meas
		}
		return encodeMeasurementSets(sets)
	})
	if err != nil {
		return nil, err
	}
	defer source.Close()
	// Sites send concurrently, so the wire accounting takes a lock: one
	// middleware message carrying payloadBytes of packets or measurements.
	var wireMu sync.Mutex
	sent := func(payloadBytes int) {
		wireMu.Lock()
		res.WireBytes += payloadBytes
		res.WireMessages++
		wireMu.Unlock()
	}
	hosted := subsBySite(res.Step1Mapping.Assign, p)
	acqCtx, acqCancel := opts.phaseContext(ctx)
	err = concurrently(acqCtx, "acquire", p, func(ctx context.Context, c int) error {
		if len(hosted[c]) == 0 {
			return nil
		}
		site := tb.Sites[c]
		reply, err := site.Client().Fetch(ctx, source.URL(), encodeSubRequest(hosted[c]))
		if err != nil {
			return fmt.Errorf("core: site %s acquiring its subsystems' data: %w", site.Name, err)
		}
		sets, err := decodeFrameList(reply)
		if err == nil && len(sets) != len(hosted[c]) {
			err = fmt.Errorf("%w: %d measurement sets for %d subsystems", errWire, len(sets), len(hosted[c]))
		}
		if err != nil {
			return fmt.Errorf("core: site %s: data source reply: %w", site.Name, err)
		}
		payload := 0
		for _, set := range sets {
			payload += len(set)
		}
		sent(payload)
		return nil
	})
	acqCancel()
	if err != nil {
		return nil, err
	}
	// The sites are done with the data source and hang up on it before it
	// closes: a link is closed from its dialing end.
	tb.HangUp()
	source.Close()
	res.Timings.Acquire = time.Since(start)

	// --- DSE Step 1 on the sites. ---
	start = time.Now()
	step1Ctx, step1Cancel := opts.phaseContext(ctx)
	err = runOnSites(step1Ctx, "step 1", tb, res.Step1Mapping.Assign, func(ctx context.Context, si int, site *cluster.Site) error {
		sp := probs1[si]
		out := site.RunJobs(ctx, []cluster.EstimationJob{{ID: si, Model: sp.Model, Opts: opts.DSE.WLS, Engine: engs1[si]}})
		if out[0].Err != nil {
			return fmt.Errorf("core: step 1 subsystem %d on %s: %w", si, site.Name, out[0].Err)
		}
		res.Step1[si] = out[0].Result
		return nil
	})
	step1Cancel()
	if err != nil {
		return nil, err
	}
	res.Timings.Step1 = time.Since(start)

	// --- Remap before Step 2 (Figure 5). ---
	start = time.Now()
	if opts.NoMapping {
		res.Step2Mapping = res.Step1Mapping
	} else {
		res.Step2Mapping, err = d.MapStep2(p, res.Step1Mapping, opts.Map)
		if err != nil {
			return nil, err
		}
	}
	res.Migrated = Migrations(res.Step1Mapping, res.Step2Mapping)
	res.Timings.Remap = time.Since(start)

	// --- Raw-data redistribution for migrated subsystems. ---
	start = time.Now()
	redistCtx, redistCancel := opts.phaseContext(ctx)
	migrating := newBundles(p)
	for _, si := range res.Migrated {
		from, to := res.Step1Mapping.Assign[si], res.Step2Mapping.Assign[si]
		migrating[from][to] = append(migrating[from][to], outEnvelope{FromSub: si, ToSub: si, Meas: probs1[si].Model.Meas})
	}
	err = shipEnvelopes(redistCtx, "redistribute", tb, migrating, sent, func(site *cluster.Site, env Envelope) error {
		// The new site takes delivery of the raw data (its data processor
		// would build the model from it; estimation below reuses the
		// in-memory one).
		return checkRouting(env, EnvelopeMigrate, tb, res.Step2Mapping.Assign, site)
	})
	redistCancel()
	if err != nil {
		return nil, err
	}
	res.Timings.Redistribute = time.Since(start)

	// --- Pseudo-measurement exchange through the middleware. ---
	start = time.Now()
	packets := make([]PseudoPacket, m)
	for si := 0; si < m; si++ {
		packets[si] = d.ExtractPseudo(si, probs1[si], res.Step1[si].State)
	}
	incoming := make([][]PseudoPacket, m)
	assign := res.Step2Mapping.Assign
	// Inter-site packets travel via the middleware, bundled per pair of
	// sites; intra-site packets are handed over in memory (same control
	// center). Ascending (si, nb) here is the bundles' envelope order.
	exchCtx, exchCancel := opts.phaseContext(ctx)
	exchanging := newBundles(p)
	for si := 0; si < m; si++ {
		for _, nb := range d.Neighbors(si) {
			from, to := assign[si], assign[nb]
			if from == to {
				incoming[nb] = append(incoming[nb], packets[si])
			} else {
				exchanging[from][to] = append(exchanging[from][to], outEnvelope{FromSub: si, ToSub: nb, Packet: &packets[si]})
			}
		}
	}
	err = shipEnvelopes(exchCtx, "exchange", tb, exchanging, sent, func(site *cluster.Site, env Envelope) error {
		if err := checkRouting(env, EnvelopePseudo, tb, assign, site); err != nil {
			return err
		}
		pkt, err := DecodePacket(env.Payload)
		if err != nil {
			return err
		}
		// Only ToSub's own site appends here, and the in-memory hand-overs
		// above finished before any site started receiving.
		incoming[env.ToSub] = append(incoming[env.ToSub], pkt)
		return nil
	})
	exchCancel()
	if err != nil {
		return nil, err
	}
	// Wire arrival order is nondeterministic; a stable ascending-FromSub
	// order (matching RunDSE's sorted Neighbors order) makes the Step-2
	// problem layout reproducible and lets the session refresh its cached
	// skeletons instead of rebuilding them.
	for si := range incoming {
		in := incoming[si]
		sort.Slice(in, func(a, b int) bool { return in[a].FromSub < in[b].FromSub })
	}
	res.Timings.Exchange = time.Since(start)

	// --- DSE Step 2 on the (re-mapped) sites. ---
	probs2 := make([]*Subproblem, m)
	start = time.Now()
	step2Ctx, step2Cancel := opts.phaseContext(ctx)
	err = runOnSites(step2Ctx, "step 2", tb, assign, func(ctx context.Context, si int, site *cluster.Site) error {
		sp, eng, err := sess.step2(si, global, incoming[si])
		if err != nil {
			return err
		}
		probs2[si] = sp
		wlsOpts := sess.step2Options(si, opts.DSE, res.Step1[si].State)
		out := site.RunJobs(ctx, []cluster.EstimationJob{{ID: si, Model: sp.Model, Opts: wlsOpts, Engine: eng}})
		if out[0].Err != nil {
			return fmt.Errorf("core: step 2 subsystem %d on %s: %w", si, site.Name, out[0].Err)
		}
		sess.noteStep2(si, out[0].Result.X)
		res.Step2[si] = out[0].Result
		return nil
	})
	step2Cancel()
	if err != nil {
		return nil, err
	}
	res.Timings.Step2 = time.Since(start)

	// --- Final step: aggregate. ---
	start = time.Now()
	nb := d.Net.N()
	res.State = powerflow.State{Vm: make([]float64, nb), Va: make([]float64, nb)}
	for si := 0; si < m; si++ {
		probs2[si].MergeInto(d, res.Step2[si].State, &res.State)
	}
	res.Timings.Aggregate = time.Since(start)
	res.Timings.Total = time.Since(totalStart)
	return res, nil
}

// subsBySite lists each of p sites' subsystems under assign, ascending.
func subsBySite(assign []int, p int) [][]int {
	perSite := make([][]int, p)
	for si, c := range assign {
		perSite[c] = append(perSite[c], si)
	}
	return perSite
}

// runOnSites executes fn for every subsystem, grouped per site: each site
// processes its subsystems sequentially while sites run concurrently —
// the testbed's execution model. Orchestration is fail-fast: the first
// error cancels the context passed to every other site's fn, so siblings
// stop at their next cancellation point instead of running to completion.
// All errors collected before the stop are reported via errors.Join.
// phase names the run phase in cancellation errors.
func runOnSites(ctx context.Context, phase string, tb *cluster.Testbed, assign []int, fn func(ctx context.Context, si int, site *cluster.Site) error) error {
	perSite := subsBySite(assign, len(tb.Sites))
	return concurrently(ctx, phase, len(tb.Sites), func(ctx context.Context, c int) error {
		for _, si := range perSite[c] {
			if ctx.Err() != nil {
				return nil // a sibling failed; don't start more work
			}
			if err := fn(ctx, si, tb.Sites[c]); err != nil {
				return err
			}
		}
		return nil
	})
}

// newBundles returns the empty bundle table of a p-site phase: [a][b] lists
// the envelopes site a owes site b.
func newBundles(p int) [][][]outEnvelope {
	bundles := make([][][]outEnvelope, p)
	for a := range bundles {
		bundles[a] = make([][]outEnvelope, p)
	}
	return bundles
}

// shipEnvelopes runs one middleware phase, a bundle per ordered pair of
// sites: bundles[a][b] holds the envelopes site a owes site b, in ascending
// (FromSub, ToSub) order, and travels as one message. Every site with
// something to send does so on a goroutine of its own — one destination
// after the other, each bundle encoded as it goes out and reported to sent
// with its payload bytes once it has — while every site that is owed
// anything blocks on its own inbox for one bundle per site that owes it one
// and passes each envelope to deliver (sequentially within a site,
// concurrently across sites). Senders and receivers start together, so a
// phase is never bounded by what inboxes and socket buffers can hold, and
// the first failure on either side stops the rest. A lost bundle surfaces
// as ctx's error wrapped with the phase and the site still waiting; a site
// that ends up with another number of envelopes than it is owed fails the
// phase.
func shipEnvelopes(ctx context.Context, phase string, tb *cluster.Testbed, bundles [][][]outEnvelope, sent func(payloadBytes int), deliver func(site *cluster.Site, env Envelope) error) error {
	p := len(tb.Sites)
	owedBundles, owedEnvelopes, crossing := make([]int, p), make([]int, p), 0
	for a := range bundles {
		for b, envs := range bundles[a] {
			if len(envs) > 0 {
				owedBundles[b]++
				owedEnvelopes[b] += len(envs)
				crossing += len(envs)
			}
		}
	}
	if crossing == 0 {
		return nil // nothing crosses sites
	}
	send := func(ctx context.Context, a int) error {
		for b, envs := range bundles[a] {
			if len(envs) == 0 {
				continue
			}
			bundle, err := encodeBundle(envs)
			if err == nil {
				err = tb.Sites[a].Client().Send(ctx, tb.Sites[b].Name, bundle)
			}
			if err != nil {
				return fmt.Errorf("core: %s: site %s sending to %s: %w", phase, tb.Sites[a].Name, tb.Sites[b].Name, err)
			}
			payload := 0
			for _, e := range envs {
				payload += e.payloadSize()
			}
			sent(payload)
		}
		return nil
	}
	receive := func(ctx context.Context, b int) error {
		site, got := tb.Sites[b], 0
		for k := 0; k < owedBundles[b]; k++ {
			msg, err := site.Client().Recv(ctx)
			if err != nil {
				return fmt.Errorf("core: %s: site %s waiting for envelope: %w", phase, site.Name, err)
			}
			frames, err := decodeFrameList(msg)
			if err != nil {
				return fmt.Errorf("core: %s: site %s: %w", phase, site.Name, err)
			}
			for _, frame := range frames {
				env, err := decodeEnvelope(frame)
				if err != nil {
					return fmt.Errorf("core: %s: site %s: %w", phase, site.Name, err)
				}
				if err := deliver(site, env); err != nil {
					return err
				}
			}
			got += len(frames)
		}
		if got != owedEnvelopes[b] {
			return fmt.Errorf("core: %s: site %s took delivery of %d envelopes, is owed %d", phase, site.Name, got, owedEnvelopes[b])
		}
		return nil
	}
	// Tasks 0..p-1 are the sites sending, p..2p-1 the sites receiving.
	return concurrently(ctx, phase, 2*p, func(ctx context.Context, i int) error {
		if i < p {
			return send(ctx, i)
		}
		return receive(ctx, i-p)
	})
}

// checkRouting rejects an envelope of the wrong kind or one that names a
// subsystem the receiving site does not host under assign.
func checkRouting(env Envelope, kind EnvelopeKind, tb *cluster.Testbed, assign []int, site *cluster.Site) error {
	if env.Kind != kind {
		return fmt.Errorf("core: site %s received envelope kind %d, want %d", site.Name, env.Kind, kind)
	}
	if env.ToSub < 0 || env.ToSub >= len(assign) || tb.Sites[assign[env.ToSub]] != site {
		return fmt.Errorf("core: site %s received an envelope for subsystem %d, which it does not host", site.Name, env.ToSub)
	}
	return nil
}
