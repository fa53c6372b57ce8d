// Colocation: the paper's headline use case (Section II, Use Case 1) —
// protect a latency-critical service from a bandwidth-hungry background
// job while still letting the background job soak up idle bandwidth.
//
// A memcached-like server runs on one tile of the scaled 8-core system;
// stream aggressors run on the other seven. The example compares the
// server's transaction service-time distribution in isolation, co-located
// without QoS, and co-located under PABST with a 20:1 share. (go test
// runs the same comparison over a shorter window.)
package main

import (
	"fmt"
	"log"

	"pabst"
)

func run(label string, colocate bool, mode pabst.Mode, cycles uint64) {
	cfg := pabst.Scaled8Config()
	b := pabst.NewBuilder(cfg, mode)
	svc := b.AddClass("memcached", 20, cfg.L3Ways/2)
	bg := b.AddClass("background", 1, cfg.L3Ways/2)

	server := pabst.MemcachedServer(pabst.TileRegion(0), 42)
	b.Attach(0, svc, server)
	if colocate {
		for i := 1; i < 8; i++ {
			b.Attach(i, bg, pabst.Stream("bg", pabst.TileRegion(i), 128, false))
		}
	}

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	sys.Warmup(cycles / 5)
	server.ResetStats()
	sys.Run(cycles)

	h := server.ServiceTimes()
	m := sys.Metrics()
	fmt.Printf("%-22s %6d txns  mean %7.0f  p95 %7d  p99 %7d cycles  (bg: %.1f B/cyc)\n",
		label, h.Count(), h.Mean(), h.Percentile(95), h.Percentile(99), m.BytesPerCycle(bg))
}

func main() { compare(1_500_000) }

// compare measures the three placements over cycles each.
func compare(cycles uint64) {
	fmt.Println("memcached service times (2 GHz cycles):")
	run("isolated", false, pabst.ModeNone, cycles)
	run("colocated, no QoS", true, pabst.ModeNone, cycles)
	run("colocated, PABST 20:1", true, pabst.ModePABST, cycles)
	fmt.Println("\nPABST keeps the tail near the isolated level while the")
	fmt.Println("background job still consumes the bandwidth the server leaves idle.")
}
