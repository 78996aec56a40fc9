// PMU data dissemination through publish/subscribe — the GridStat-style
// path the paper's conclusion describes: synchrophasor streams from
// substations are published to a broker (broker.go, on the medici TCP
// transport and length-prefix frames), and consumers with different QoS
// needs subscribe at their own rates (an unthrottled archiver, a 5 msg/s
// operator display). The broker decimates per subscriber.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	gridse "repro"
	"repro/internal/medici"
	"repro/internal/scada"
)

// sample is the published PMU payload.
type sample struct {
	Seq int
	Bus int
	Vm  float64
	Va  float64
}

func main() {
	var (
		frames = flag.Int("frames", 60, "PMU frames to stream")
		busID  = flag.Int("bus", 69, "monitored bus")
	)
	flag.Parse()

	net := gridse.Case118()
	truth, err := gridse.SolvePowerFlow(net)
	if err != nil {
		log.Fatalf("power flow: %v", err)
	}

	broker, err := NewBroker("127.0.0.1:0", 256)
	if err != nil {
		log.Fatalf("broker: %v", err)
	}
	defer broker.Close()

	// Two consumers: a full-rate archiver and a 5 Hz display.
	archiver, err := medici.NewReceiver(nil, "127.0.0.1:0", medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		log.Fatal(err)
	}
	defer archiver.Close()
	display, err := medici.NewReceiver(nil, "127.0.0.1:0", medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		log.Fatal(err)
	}
	defer display.Close()
	topic := fmt.Sprintf("pmu/bus%d", *busID)
	if err := broker.Subscribe(topic, archiver.URL(), 0); err != nil {
		log.Fatal(err)
	}
	if err := broker.Subscribe(topic, display.URL(), 5); err != nil { // 5 msg/s QoS
		log.Fatal(err)
	}

	// Substation side: a PMU feed publishing every frame.
	plan := []gridse.Measurement{
		{Kind: gridse.Vmag, Bus: *busID, Sigma: 0.001},
		{Kind: gridse.Angle, Bus: *busID, Sigma: 0.001},
	}
	feed := scada.NewPMUFeed(net, truth.State, plan, 1)

	start := time.Now()
	for k := 0; k < *frames; k++ {
		fr, err := feed.Next()
		if err != nil {
			log.Fatalf("frame %d: %v", k, err)
		}
		s := sample{Seq: fr.Seq, Bus: *busID, Vm: fr.Measurements[0].Value, Va: fr.Measurements[1].Value}
		payload, err := json.Marshal(s)
		if err != nil {
			log.Fatal(err)
		}
		if err := publish(context.Background(), broker.URL(), topic, payload); err != nil {
			log.Fatalf("publish: %v", err)
		}
		// Pace at ~10x real time so the run finishes quickly but the
		// display's 5 Hz QoS still bites.
		time.Sleep(time.Second / 30 / 10)
	}
	elapsed := time.Since(start)

	drain := func(r *medici.Receiver) int {
		n := 0
		for {
			select {
			case <-r.Messages():
				n++
			case <-time.After(300 * time.Millisecond):
				return n
			}
		}
	}
	archived := drain(archiver)
	displayed := drain(display)
	fmt.Printf("published %d PMU frames for bus %d in %v\n", *frames, *busID, elapsed.Round(time.Millisecond))
	fmt.Printf("archiver (unthrottled QoS): received %d\n", archived)
	fmt.Printf("operator display (5 msg/s): received %d (broker decimated %d)\n",
		displayed, broker.Dropped(topic, display.URL()))
}
