// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's row format.
//
//	experiments -exp all
//	experiments -exp table3 -full     # the paper's 100MB..2GB sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig4|fig5|fig4paper|fig5paper|fig8|expr2|e2e|all")
		m    = flag.Int("subsystems", 9, "subsystems for the IEEE-118 decomposition")
		p    = flag.Int("clusters", 3, "HPC clusters")
		seed = flag.Int64("seed", 1, "random seed")
		full = flag.Bool("full", false, "use the paper's full 100MB-2GB transfer sweep")
	)
	flag.Parse()

	// Interrupt (Ctrl-C) or SIGTERM cancels the running experiment cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sizes := experiments.DefaultSizes()
	if *full || os.Getenv("GRIDSE_FULL_SIZES") == "1" {
		sizes = experiments.FullSizes()
	}

	fx, err := experiments.NewFixture(*m, 1.0, *seed)
	if err != nil {
		log.Fatalf("fixture: %v", err)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("table1", func() error {
		t := experiments.RunTable1(fx)
		fmt.Println("TABLE I: initial vertex and edge weights, IEEE-118 decomposition")
		fmt.Println("Vertex  Weight        Edge      Weight")
		maxRows := len(t.VertexWeights)
		if len(t.Edges) > maxRows {
			maxRows = len(t.Edges)
		}
		for i := 0; i < maxRows; i++ {
			v, e := "", ""
			if i < len(t.VertexWeights) {
				v = fmt.Sprintf("%4d    %4.0f", i+1, t.VertexWeights[i])
			} else {
				v = "            "
			}
			if i < len(t.Edges) {
				e = fmt.Sprintf("(%d, %d)     %4.0f", int(t.Edges[i][0])+1, int(t.Edges[i][1])+1, t.Edges[i][2])
			}
			fmt.Printf("%s        %s\n", v, e)
		}
		return nil
	})

	run("table2", func() error {
		t, err := experiments.RunTable2(fx, *p, *seed)
		if err != nil {
			return err
		}
		fmt.Println("TABLE II: decomposition comparison w/o vs w/ mapping (paper: 35/46/37 vs 40/40/38)")
		fmt.Println("Area     w/o mapping (# buses)   w/ mapping (# buses)")
		for i := range t.WithoutMapping {
			fmt.Printf("Area %d   %8d                %8d\n", i+1, t.WithoutMapping[i], t.WithMapping[i])
		}
		return nil
	})

	run("table3", func() error {
		rows, err := experiments.RunTable3(ctx, sizes)
		if err != nil {
			return err
		}
		fmt.Println("TABLE III: data communication within a workstation (paper: ~0.4 GB/s relay)")
		printOverhead(rows)
		return nil
	})

	run("table4", func() error {
		rows, err := experiments.RunTable4(ctx, sizes)
		if err != nil {
			return err
		}
		fmt.Println("TABLE IV: data communication across the lab network (shaped link)")
		printOverhead(rows)
		return nil
	})

	run("fig4", func() error {
		f, err := experiments.RunFig4(fx, *p, *seed)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 4: partitioning before DSE Step 1 (paper imbalance: 1.035)")
		fmt.Printf("assign = %v\nload-imbalance ratio = %.3f, edge cut = %.0f\n", f.Assign, f.Imbalance, f.EdgeCut)
		return nil
	})

	run("fig5", func() error {
		f, err := experiments.RunFig5(fx, *p, *seed)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 5: repartitioning before DSE Step 2 (paper imbalance: 1.079, threshold 1.05)")
		fmt.Printf("assign = %v\nload-imbalance ratio = %.3f, edge cut = %.0f, migrated subsystems = %v\n",
			f.Assign, f.Imbalance, f.EdgeCut, f.Migrated)
		return nil
	})

	run("fig4paper", func() error {
		f, err := experiments.RunFig4Paper(*p, *seed)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 4 on the paper's exact Table-I graph (paper imbalance: 1.035)")
		fmt.Printf("assign = %v\nload-imbalance ratio = %.3f, edge cut = %.0f\n", f.Assign, f.Imbalance, f.EdgeCut)
		return nil
	})

	run("fig5paper", func() error {
		f, err := experiments.RunFig5Paper(*p, *seed)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 5 on the paper's exact Table-I graph (paper: 1.079, subsystems 4 and 5 migrate)")
		fmt.Printf("assign = %v\nload-imbalance ratio = %.3f, edge cut = %.0f, migrated subsystems = %v\n",
			f.Assign, f.Imbalance, f.EdgeCut, f.Migrated)
		return nil
	})

	run("fig8", func() error {
		local, err := experiments.RunTable3(ctx, sizes)
		if err != nil {
			return err
		}
		remote, err := experiments.RunTable4(ctx, sizes)
		if err != nil {
			return err
		}
		fmt.Println("FIGURE 8: middleware overhead vs data size (linear trend)")
		fmt.Println("size(MB)    overhead1(ms,local)    overhead2(ms,network)")
		for i := range local {
			fmt.Printf("%8.0f    %19.2f    %21.2f\n",
				float64(local[i].Size)/1e6,
				float64(local[i].Overhead.Microseconds())/1000,
				float64(remote[i].Overhead.Microseconds())/1000)
		}
		return nil
	})

	run("expr2", func() error {
		fit, err := experiments.RunExpr2([]float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}, 10)
		if err != nil {
			return err
		}
		fmt.Println("EXPRESSION (2): Ni = g1*x + g2 on a 14-bus subsystem (paper: g1=3.7579, g2=5.2464)")
		fmt.Println("noise x    mean iterations")
		for _, pt := range fit.Points {
			fmt.Printf("%7.2f    %15.2f\n", pt.Noise, pt.Iterations)
		}
		fmt.Printf("fit: g1 = %.4f, g2 = %.4f\n", fit.G1, fit.G2)
		return nil
	})

	run("rounds", func() error {
		pts, err := experiments.RunRoundsStudy(ctx, fx)
		if err != nil {
			return err
		}
		fmt.Println("STEP-2 ROUNDS: convergence within the decomposition diameter [10]")
		fmt.Println("rounds    boundary Va RMS (rad)    exchange bytes")
		for _, p := range pts {
			fmt.Printf("%6d    %21.6f    %14d\n", p.Rounds, p.BoundaryRMSVa, p.ExchangeBytes)
		}
		return nil
	})

	run("e2e", func() error {
		e, err := experiments.RunEndToEnd(ctx, fx, *p)
		if err != nil {
			return err
		}
		fmt.Println("END TO END: distributed architecture vs centralized estimator")
		fmt.Printf("centralized solve:      %v\n", e.CentralizedTime.Round(time.Microsecond))
		fmt.Printf("distributed total:      %v\n", e.DistributedTime.Round(time.Microsecond))
		fmt.Printf("  map=%v step1=%v remap=%v redistribute=%v exchange=%v step2=%v\n",
			e.Timings.Map.Round(time.Microsecond), e.Timings.Step1.Round(time.Microsecond),
			e.Timings.Remap.Round(time.Microsecond), e.Timings.Redistribute.Round(time.Microsecond),
			e.Timings.Exchange.Round(time.Microsecond), e.Timings.Step2.Round(time.Microsecond))
		fmt.Printf("middleware:             %d messages, %d bytes\n", e.WireMessages, e.WireBytes)
		fmt.Printf("max |Vm| disagreement:  %.6f pu\n", e.MaxVmDelta)
		return nil
	})
}

func printOverhead(rows []experiments.OverheadRow) {
	fmt.Println("Data Size    Direct TCP (s)    w/ MeDICi (s)    Abs. Overhead (s)")
	for _, r := range rows {
		fmt.Printf("%6.0f MB    %14.6f    %13.6f    %17.6f\n",
			float64(r.Size)/1e6, r.Direct.Seconds(), r.Relayed.Seconds(), r.Overhead.Seconds())
	}
}
