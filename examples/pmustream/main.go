// Streaming estimation at PMU rate: run a measurement feed (default: a
// sped-up SCADA cycle with load drift) through the estimator, warm-starting
// each solve from the previous solution — the "time to solution in the
// 10 ms to 1 s range" regime the paper motivates with synchrophasors.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	gridse "repro"
	"repro/internal/scada"
	"repro/internal/wls"
)

func main() {
	var (
		frames = flag.Int("frames", 10, "number of acquisition frames")
		pmu    = flag.Bool("pmu", false, "run at 30 Hz PMU rate instead of the 4 s SCADA cycle")
		drift  = flag.Float64("drift", 0.002, "per-frame load-angle drift (rad)")
	)
	flag.Parse()

	net := gridse.Case118()
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}
	plan := gridse.FullPlan().Build(net)

	var feed *scada.Feed
	if *pmu {
		feed = scada.NewPMUFeed(net, truth.State, plan, 1)
	} else {
		feed = scada.NewSCADAFeed(net, truth.State, plan, 1)
	}
	feed.Drift = *drift

	fmt.Printf("streaming %d frames at cycle %v (noise level %.3f per frame)\n\n",
		*frames, feed.Cycle, gridse.NoiseFromTimeFrame(feed.Cycle))
	fmt.Println("frame |  iters   solve-time |  max|Vm err|")
	fmt.Println("------+--------------------+-------------")

	var warm []float64
	for k := 0; k < *frames; k++ {
		frame, err := feed.Next()
		if err != nil {
			log.Fatalf("frame %d: %v", k, err)
		}
		mod, err := gridse.NewMeasurementModel(net, frame.Measurements, truth.State.Va[net.SlackIndex()])
		if err != nil {
			log.Fatalf("model: %v", err)
		}
		start := time.Now()
		res, err := wls.Estimate(mod, wls.Options{X0: warm})
		if err != nil {
			log.Fatalf("estimate frame %d: %v", k, err)
		}
		elapsed := time.Since(start)
		warm = res.X // warm-start the next frame

		var worst float64
		for i := range res.State.Vm {
			if d := math.Abs(res.State.Vm[i] - truth.State.Vm[i]); d > worst {
				worst = d
			}
		}
		fmt.Printf("%5d | %6d %12v | %11.5f\n",
			frame.Seq, res.Iterations, elapsed.Round(time.Microsecond), worst)
	}
	fmt.Println("\nwarm starts keep later frames cheaper than the first — the streaming win.")
}
