// Policy: PABST is a mechanism; allocation policy belongs to software
// (Section II-C). This example drives the pabst/policy package's
// latency-SLO controller against a co-located background flood: the
// controller finds the smallest service weight that meets the latency
// target, leaving the rest of the machine to the background job. (go
// test runs the same loop on the scaled 8-core system.)
package main

import (
	"fmt"
	"log"

	"pabst"
	"pabst/policy"
)

func main() { run(pabst.Default32Config(), 100_000, 12) }

// run drives the controller for steps intervals of interval cycles.
func run(cfg pabst.SystemConfig, interval uint64, steps int) {
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	svc := b.AddClass("service", 1, cfg.L3Ways/2) // starts at a 50% share
	bg := b.AddClass("background", 1, cfg.L3Ways/2)

	// The service is latency-bound (pointer chasing); the background is
	// a write-stream flood.
	half := cfg.NumTiles() / 2
	for i := 0; i < half; i++ {
		b.Attach(i, svc, pabst.Chaser("service", pabst.TileRegion(i), 4, uint64(i)+1))
		b.Attach(half+i, bg, pabst.Stream("background", pabst.TileRegion(half+i), 128, true))
	}
	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	sys.Warmup(2 * interval)

	ctl := &policy.LatencyTarget{Class: svc, TargetCycles: 280}
	logLines, err := policy.Drive(sys, interval, steps, ctl)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range logLines {
		fmt.Println(l)
	}

	sys.ResetStats()
	sys.Run(interval)
	snap := sys.Snapshot()
	fmt.Printf("\nconverged: weight=%d, service latency %.0f cycles (target 280), background %.1f B/cyc\n",
		ctl.Weight(), snap.Class(svc).MissLatency, snap.Class(bg).BytesPerCycle)
	fmt.Println("the controller found the smallest service weight that meets the")
	fmt.Println("latency target, leaving the rest of the machine to the background job.")
}
