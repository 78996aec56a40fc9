package core

import (
	"context"
	"errors"
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
	// redistribute, every round's exchange and step 2; RunHierarchical's
	// local estimation and ship-up) with its own deadline, derived from the
	// run context. Zero means no per-phase deadline.
	PhaseTimeout time.Duration
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
	Exchange     time.Duration // pseudo-measurement exchange via middleware, all rounds
	Step2        time.Duration // all rounds
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
	// hosts a subsystem, and per phase — the redistribution, then every
	// round's exchange — one bundle per ordered pair of sites with anything
	// to ship between them: at most p + (1 + rounds)·p(p−1) whatever the
	// mapping, which decides the bytes.
	WireMessages int
	// Step1 and Step2 hold per-subsystem estimation results, Step2 the last
	// round's.
	Step1, Step2 []*wls.Result
}

// RunDistributed executes the paper's full architecture flow on a simulated
// testbed: map subsystems to clusters (Figure 4), have each site fetch its
// subsystems' raw data, and run the DSE sequence — the one RunDSE runs —
// placed on the sites: Step 1, then before the first exchange the remapping
// (Figure 5) and the raw-data redistribution for migrated subsystems, then
// DSEOptions.Rounds of pseudo-measurement exchange through MeDICi-style
// pipelines and Step 2, and the aggregation of the system-wide solution.
// Round for round it is RunDSE's computation, bit for bit. The testbed —
// sites, links, data source — stays with d for its next run until
// d.Close; a run that fails takes it down (DESIGN §12).
//
// The context governs the entire run: cancellation aborts in-flight site
// work at the next Gauss-Newton iteration and unblocks any middleware
// receive, so the call returns promptly with a wrapped ctx.Err(); a
// deadline on ctx bounds the whole run. DistributedOptions.PhaseTimeout
// derives a deadline per phase from ctx, afresh for every round's exchange
// and Step 2.
func RunDistributed(ctx context.Context, d *Decomposition, global []meas.Measurement, opts DistributedOptions) (_ *DistributedResult, err error) {
	totalStart := time.Now()
	pl, err := placeOnTestbed(d, opts)
	if err != nil {
		return nil, err
	}
	defer func() { pl.release(err != nil) }()
	res, m, p := pl.res, len(d.Subsystems), len(pl.tb.Sites)

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
	pl.assign = res.Step1Mapping.Assign
	res.Timings.Map = time.Since(start)

	// --- Raw-data acquisition: each site fetches its subsystems' SCADA
	// measurements from the data source through the middleware (the
	// Figure 1 path: data source -> middleware -> data processor). The
	// source serves the sets the session's Step-1 skeletons select. ---
	sess, release := d.sessionFor(opts.DSE)
	defer release()
	pl.raw = make([][]meas.Measurement, m)
	for si := range pl.raw {
		sp, _, err := sess.step1(si, global)
		if err != nil {
			return nil, err
		}
		pl.raw[si] = sp.Model.Meas
	}
	start = time.Now()
	if err := pl.acquire(ctx); err != nil {
		return nil, err
	}
	res.Timings.Acquire = time.Since(start)

	dse, err := sess.runDSE(ctx, pl, global, pl.opts.DSE)
	if err != nil {
		return nil, err
	}
	res.State, res.Step1, res.Step2 = dse.State, dse.Step1, dse.Step2
	t := &res.Timings
	t.Step1, t.Step2, t.Aggregate = dse.phases.Step1, dse.phases.Step2, dse.phases.Aggregate
	// The driver's exchange clock ran over the round-0 remapping and
	// redistribution, which have fields of their own.
	t.Exchange = dse.phases.Exchange - t.Remap - t.Redistribute
	t.Total = time.Since(totalStart)
	return res, nil
}

// onTestbed places a run's estimators on the sites of a testbed: a phase
// runs each site's subsystems one after the other and the sites side by
// side, under the current step's mapping and a PhaseTimeout of its own; a
// packet crosses sites in the bundle the two sites exchange that round and
// stays in memory within a site. Before round 0's exchange it remaps for
// Step 2 and ships the migrated subsystems' raw data. Mappings, migrations,
// their timings and the wire accounting go to res.
type onTestbed struct {
	*keptTestbed
	// release hands the testbed back when the run returns, saying whether
	// the run failed (see testbedFor).
	release func(failed bool)
	d       *Decomposition
	opts    DistributedOptions // DSE.WLS.Workers at the sites' width
	res     *DistributedResult
	// assign is the mapping the current step runs under.
	assign []int
	// raw[si] is subsystem si's raw measurement set: what the data source
	// serves and a migration ships.
	raw [][]meas.Measurement
	// wireMu guards res.WireBytes / WireMessages: sites send concurrently.
	wireMu sync.Mutex
}

// placeOnTestbed takes the testbed of a run — opts.Clusters sites
// (default 3, the paper's), at most one per subsystem — from d.testbedFor
// and returns the placement on it, not yet mapped, for the caller to
// release. Every solve runs at its site's width, and every site of a
// testbed has the same.
func placeOnTestbed(d *Decomposition, opts DistributedOptions) (*onTestbed, error) {
	p := opts.Clusters
	if p <= 0 {
		p = 3
	}
	if m := len(d.Subsystems); p > m {
		return nil, fmt.Errorf("core: %d clusters for %d subsystems", p, m)
	}
	kept, release, err := d.testbedFor(newTestbedKey(p, opts))
	if err != nil {
		return nil, err
	}
	opts.DSE.WLS.Workers = kept.tb.Sites[0].Workers
	return &onTestbed{keptTestbed: kept, release: release, d: d, opts: opts, res: &DistributedResult{}}, nil
}

// sent accounts one middleware message carrying payloadBytes of packets or
// measurements.
func (p *onTestbed) sent(payloadBytes int) {
	p.wireMu.Lock()
	p.res.WireBytes += payloadBytes
	p.res.WireMessages++
	p.wireMu.Unlock()
}

// acquire has every site that hosts a subsystem fetch its subsystems' raw
// measurements from the data source in one request.
func (p *onTestbed) acquire(ctx context.Context) error {
	p.serve(p.raw)
	hosted := subsBySite(p.assign, len(p.tb.Sites))
	ctx, cancel := p.opts.phaseContext(ctx)
	defer cancel()
	return concurrently(ctx, "acquire", len(hosted), func(ctx context.Context, c int) error {
		if len(hosted[c]) == 0 {
			return nil
		}
		site := p.tb.Sites[c]
		reply, err := site.Client().Fetch(ctx, p.sourceURL, encodeSubRequest(hosted[c]))
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
		p.sent(payload)
		return nil
	})
}

func (p *onTestbed) forEach(ctx context.Context, phase string, f func(ctx context.Context, si int) error) error {
	ctx, cancel := p.opts.phaseContext(ctx)
	defer cancel()
	perSite := subsBySite(p.assign, len(p.tb.Sites))
	return concurrently(ctx, phase, len(perSite), func(ctx context.Context, c int) error {
		for _, si := range perSite[c] {
			if ctx.Err() != nil {
				return nil // a sibling failed; don't start more work
			}
			if err := f(ctx, si); err != nil {
				return fmt.Errorf("core: site %s: %w", p.tb.Sites[c].Name, err)
			}
		}
		return nil
	})
}

func (p *onTestbed) exchange(ctx context.Context, round int, packets []PseudoPacket) ([][]PseudoPacket, error) {
	if round == 0 {
		if err := p.remap(ctx); err != nil {
			return nil, err
		}
	}
	// Inter-site packets travel via the middleware, bundled per pair of
	// sites; intra-site packets are handed over in memory (same control
	// center). Ascending (si, nb) here is the bundles' envelope order.
	incoming := make([][]PseudoPacket, len(packets))
	exchanging := newBundles(len(p.tb.Sites))
	for si := range packets {
		for _, nb := range p.d.Neighbors(si) {
			from, to := p.assign[si], p.assign[nb]
			if from == to {
				incoming[nb] = append(incoming[nb], packets[si])
			} else {
				exchanging[from][to] = append(exchanging[from][to], outEnvelope{FromSub: si, ToSub: nb, Packet: &packets[si]})
			}
		}
	}
	ctx, cancel := p.opts.phaseContext(ctx)
	defer cancel()
	err := shipEnvelopes(ctx, "exchange", p.tb, exchanging, p.sent, func(site *cluster.Site, env Envelope) error {
		if err := checkRouting(env, EnvelopePseudo, p.tb, p.assign, site); err != nil {
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
	if err != nil {
		return nil, err
	}
	// Wire arrival order is nondeterministic.
	for _, in := range incoming {
		sort.Slice(in, func(a, b int) bool { return in[a].FromSub < in[b].FromSub })
	}
	return incoming, nil
}

// remap moves the run from its Step-1 to its Step-2 mapping (Figure 5) and
// ships every migrated subsystem's raw data to its new site.
func (p *onTestbed) remap(ctx context.Context) error {
	res, start := p.res, time.Now()
	res.Step2Mapping = res.Step1Mapping
	if !p.opts.NoMapping {
		var err error
		if res.Step2Mapping, err = p.d.MapStep2(len(p.tb.Sites), res.Step1Mapping, p.opts.Map); err != nil {
			return err
		}
	}
	res.Migrated = Migrations(res.Step1Mapping, res.Step2Mapping)
	p.assign = res.Step2Mapping.Assign
	res.Timings.Remap = time.Since(start)

	start = time.Now()
	ctx, cancel := p.opts.phaseContext(ctx)
	defer cancel()
	migrating := newBundles(len(p.tb.Sites))
	for _, si := range res.Migrated {
		from, to := res.Step1Mapping.Assign[si], p.assign[si]
		migrating[from][to] = append(migrating[from][to], outEnvelope{FromSub: si, ToSub: si, Meas: p.raw[si]})
	}
	err := shipEnvelopes(ctx, "redistribute", p.tb, migrating, p.sent, func(site *cluster.Site, env Envelope) error {
		// The new site takes delivery of the raw data (its data processor
		// would build the model from it; estimation reuses the in-memory
		// one).
		return checkRouting(env, EnvelopeMigrate, p.tb, p.assign, site)
	})
	res.Timings.Redistribute = time.Since(start)
	return err
}

// subsBySite lists each of p sites' subsystems under assign, ascending.
func subsBySite(assign []int, p int) [][]int {
	perSite := make([][]int, p)
	for si, c := range assign {
		perSite[c] = append(perSite[c], si)
	}
	return perSite
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

// concurrently runs tasks 0..n-1 of one phase on a goroutine each and waits
// for all of them. The first error cancels the context handed to every
// other task (fail-fast); errors collected before the stop are joined. It is
// the testbed's: every site stands for a machine of its own, and the tasks
// of an I/O phase (acquire, shipEnvelopes) block on each other — a receiver
// waits for senders — so each needs a goroutine of its own. The phase
// runner, whose caller takes part and whose helpers may be fewer than the
// tasks, would deadlock once its caller claimed a receiver.
func concurrently(ctx context.Context, phase string, n int, task func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				return // a sibling failed; don't start more work
			}
			if errs[i] = task(ctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// No task recorded an error, yet the context may have been canceled by
	// the parent before some of them started (or, inside a task, before it
	// got through its list) — their result slots are then silently empty, so
	// the phase must not be treated as complete.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: canceled before all of it completed: %w", phase, err)
	}
	return nil
}
