// Command dse runs the full distributed state estimation flow on a
// built-in case: decomposition, cluster mapping, DSE Step 1, middleware
// exchange, DSE Step 2 and aggregation — optionally on the simulated
// multi-cluster testbed with real TCP between sites.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	gridse "repro"
	"repro/internal/cluster"
	"repro/internal/prof"
	"repro/internal/wls"
)

const defaultCase = "ieee118"

// usageError reports a flag combination the command cannot run and exits
// with the flag package's usage status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dse: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		caseName   = flag.String("case", defaultCase, "built-in case")
		areas      = flag.Int("areas", 0, "instead of -case, synthesize a multi-area grid with this many areas and decompose it one subsystem per area (12 = the 1 416-bus benchmark grid)")
		subsystems = flag.Int("subsystems", 9, "number of subsystems (m)")
		clusters   = flag.Int("clusters", 3, "number of HPC clusters (p)")
		noise      = flag.Float64("noise", 1.0, "meter noise level")
		seed       = flag.Int64("seed", 1, "random seed")
		rounds     = flag.Int("rounds", 1, "DSE Step-2 rounds, on the testbed or in process (not with -hierarchical, which has no Step 2)")
		inproc     = flag.Bool("inprocess", false, "skip the TCP testbed, run in-process (not with -hierarchical, whose coordinator sits on the testbed)")
		noMapping  = flag.Bool("nomapping", false, "on the testbed: use the naive contiguous assignment instead of the cost-model mapping")
		shaped     = flag.Bool("shaped", false, "on the testbed: shape inter-site links to the lab-network profile")
		hier       = flag.Bool("hierarchical", false, "run the coordinator-based hierarchical mode on the testbed instead of peer-to-peer DSE")
		refine     = flag.Bool("refine", false, "with -hierarchical: coordinator re-estimates the boundary system")
		frames     = flag.Int("frames", 1, "serve this many measurement frames on one decomposition: with -inprocess a tracker (session reuse + warm starts), otherwise one testbed run per frame on the testbed the decomposition keeps")
		gainReuse  = flag.String("gain-reuse", wls.Options{}.GainReuse.String(), "drift-gated gain/factor reuse: gain (lag while the state stays inside the gate) or off (exact Gauss-Newton)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()
	if *areas != 0 {
		subsystemsSet := false
		flag.Visit(func(f *flag.Flag) { subsystemsSet = subsystemsSet || f.Name == "subsystems" })
		switch {
		case *areas < 0:
			usageError("-areas %d: want a positive area count", *areas)
		case *caseName != defaultCase:
			usageError("-areas synthesizes its own grid and cannot be combined with -case %s", *caseName)
		case subsystemsSet && *subsystems != *areas:
			usageError("-areas %d decomposes one subsystem per area and cannot be combined with -subsystems %d", *areas, *subsystems)
		}
		*subsystems = *areas
	}
	// A flag that names what a flow does not have is refused, not dropped.
	switch {
	case *hier && *inproc:
		usageError("-hierarchical cannot be combined with -inprocess: the coordinator flow runs on the testbed")
	case *rounds > 1 && *hier:
		usageError("-rounds %d cannot be combined with -hierarchical: the coordinator flow has no Step 2 to repeat", *rounds)
	case *refine && !*hier:
		usageError("-refine needs -hierarchical: only the coordinator re-estimates the boundary system")
	case *noMapping && *inproc:
		usageError("-nomapping cannot be combined with -inprocess: there are no clusters to map onto")
	case *shaped && *inproc:
		usageError("-shaped cannot be combined with -inprocess: no link carries the exchange")
	}
	tracking := *inproc && *frames > 1
	stopProfile, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	reuseKind, ok := map[string]wls.GainReuseKind{"gain": wls.ReuseGain, "off": wls.ReuseOff}[*gainReuse]
	if !ok {
		log.Fatalf("unknown -gain-reuse %q (want gain or off)", *gainReuse)
	}
	wlsOpts := gridse.EstimatorOptions{GainReuse: reuseKind}

	// Interrupt (Ctrl-C) or SIGTERM cancels the run cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var net *gridse.Network
	if *areas > 0 {
		net, err = gridse.SynthWECC(gridse.SynthOptions{Areas: *areas, Seed: 1})
	} else {
		net, err = gridse.CaseByName(*caseName)
	}
	if err != nil {
		log.Fatal(err)
	}
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	var dec *gridse.Decomposition
	if *areas > 0 {
		dec, err = gridse.DecomposeWithParts(net, *areas, gridse.AreaParts(net), 1)
	} else {
		dec, err = gridse.Decompose(net, *subsystems, gridse.DecomposeOptions{Seed: *seed})
	}
	if err != nil {
		log.Fatalf("decompose: %v", err)
	}
	defer dec.Close()
	plan := gridse.FullPlan().Build(net)
	plan = append(plan, gridse.PMUPlanFor(dec, plan, 0.0005)...)
	ms, err := gridse.SimulateMeasurements(net, plan, truth.State, *noise, *seed)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	fmt.Printf("case %s: %d subsystems, %d tie lines, decomposition diameter %d\n",
		net.Name, len(dec.Subsystems), len(dec.TieLines), dec.Diameter())

	var state gridse.State
	// Frame 0 is ms; frame f the same plan simulated with seed+f.
	frame := func(f int) []gridse.Measurement {
		if f == 0 {
			return ms
		}
		fms, err := gridse.SimulateMeasurements(net, plan, truth.State, *noise, *seed+int64(f))
		if err != nil {
			log.Fatalf("simulate frame %d: %v", f, err)
		}
		return fms
	}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	// What the testbed flows share; a nil Transport is plain loopback TCP.
	testbed := gridse.DistributedOptions{Clusters: *clusters, DSE: gridse.DSEOptions{Rounds: *rounds, WLS: wlsOpts}}
	if *shaped {
		testbed.Transport = cluster.NewShapedTransport(cluster.LabNetworkProfile(), nil)
	}
	switch {
	case tracking:
		// Tracking operation: successive acquisition cycles over one
		// decomposition. The first frame pays the symbolic build (skeletons,
		// solver plans); every later frame is a value-only refresh with
		// warm-started solves, so its cost is the steady-state frame cost.
		tracker := gridse.NewTracker(dec, gridse.DSEOptions{Rounds: *rounds, WLS: wlsOpts})
		for f := 0; f < *frames; f++ {
			fms := frame(f)
			frameStart := time.Now()
			res, err := tracker.Step(ctx, fms)
			if err != nil {
				log.Fatalf("frame %d: %v", f, err)
			}
			c := res.Step1Stats.Counters
			c.Add(res.Step2Stats.Counters)
			fmt.Printf("frame %d: %v (step1 %d GN iters, step2 %d GN iters, gain refresh skipped %d/%d)\n",
				f, time.Since(frameStart).Round(time.Microsecond),
				res.Step1Stats.Iterations, res.Step2Stats.Iterations,
				c.GainSkips, c.GainSkips+c.GainRefreshes)
			state = res.State
		}
	case *hier:
		opts := testbed
		opts.HierarchicalRefine, opts.NoMapping = *refine, *noMapping
		// Every frame after the first runs on the sites, links and
		// coordinator endpoint the first one brought up.
		for f := 0; f < *frames; f++ {
			res, err := gridse.RunHierarchical(ctx, dec, frame(f), opts)
			if err != nil {
				log.Fatalf("hierarchical: %v", err)
			}
			if *frames > 1 {
				fmt.Printf("frame %d: ", f)
			}
			fmt.Printf("hierarchical run: %v, %d bytes to coordinator (refine=%v)\n",
				us(res.Duration), res.CoordinatorBytes, *refine)
			state = res.State
		}
	case *inproc:
		res, err := gridse.RunDSE(ctx, dec, ms, gridse.DSEOptions{Rounds: *rounds, WLS: wlsOpts})
		if err != nil {
			log.Fatalf("dse: %v", err)
		}
		fmt.Printf("in-process DSE: step1 %v (%d GN iters), step2 %v (%d GN iters), %d exchange bytes\n",
			res.Step1Stats.Duration.Round(time.Microsecond), res.Step1Stats.Iterations,
			res.Step2Stats.Duration.Round(time.Microsecond), res.Step2Stats.Iterations,
			res.ExchangeBytes)
		state = res.State
	default:
		opts := testbed
		opts.NoMapping = *noMapping
		// The first frame brings the testbed up and dials its links; every
		// later one runs on them, so the cold frame and the steady state
		// show apart.
		var res *gridse.DistributedResult
		for f := 0; f < *frames; f++ {
			if res, err = gridse.RunDistributed(ctx, dec, frame(f), opts); err != nil {
				log.Fatalf("distributed dse: %v", err)
			}
			if *frames > 1 {
				t := res.Timings
				fmt.Printf("frame %d: map=%v acquire=%v exchange=%v total=%v\n", f, us(t.Map), us(t.Acquire), us(t.Exchange), us(t.Total))
			}
		}
		fmt.Printf("step-1 mapping: %v (imbalance %.3f)\n", res.Step1Mapping.Assign, res.Step1Mapping.Imbalance)
		fmt.Printf("step-2 mapping: %v (imbalance %.3f, migrated %v)\n",
			res.Step2Mapping.Assign, res.Step2Mapping.Imbalance, res.Migrated)
		fmt.Printf("middleware: %d messages, %d bytes\n", res.WireMessages, res.WireBytes)
		t := res.Timings
		fmt.Printf("timings: map=%v acquire=%v step1=%v remap=%v redistribute=%v exchange=%v step2=%v aggregate=%v total=%v\n",
			us(t.Map), us(t.Acquire), us(t.Step1), us(t.Remap), us(t.Redistribute), us(t.Exchange), us(t.Step2), us(t.Aggregate), us(t.Total))
		state = res.State
	}

	var worstVm, worstVa float64
	for i := range truth.State.Vm {
		worstVm = math.Max(worstVm, math.Abs(state.Vm[i]-truth.State.Vm[i]))
		worstVa = math.Max(worstVa, math.Abs(state.Va[i]-truth.State.Va[i]))
	}
	fmt.Printf("accuracy vs truth: max |Vm| %.5f pu, max |Va| %.5f rad\n", worstVm, worstVa)
}
