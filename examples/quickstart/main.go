// Quickstart: build the paper's 32-core system, create two QoS classes
// with a 7:3 bandwidth split, run streaming workloads in both, and verify
// that PABST delivers the split — reading everything through one
// Snapshot and tracing the governors' convergence with an Observer.
// (go test runs the same program on the scaled 8-core system.)
package main

import (
	"fmt"
	"log"

	"pabst"
)

func main() { run(pabst.Default32Config(), 400_000) }

// run executes the walkthrough on cfg: cycles of warmup, then as many
// measured.
func run(cfg pabst.SystemConfig, cycles uint64) {
	// An observer captures epoch-scoped trace events (governor registers,
	// arbiter state, DRAM service) into a ring; sinks could additionally
	// stream them as JSONL/CSV. Passing no observer keeps tracing off at
	// zero cost.
	observer := pabst.NewObserver(0)
	b := pabst.NewBuilder(cfg, pabst.ModePABST, pabst.WithObserver(observer))

	// Two classes of service: weights are the software-visible knob; the
	// hardware derives strides (inverse weights) from them. Each class
	// also gets half the shared cache, CAT-style.
	hi := b.AddClass("frontend", 7, cfg.L3Ways/2)
	lo := b.AddClass("batch", 3, cfg.L3Ways/2)

	// Half the cores per class, all streaming through memory at the
	// paper's 128-byte stride.
	half := cfg.NumTiles() / 2
	for i := 0; i < half; i++ {
		b.Attach(i, hi, pabst.Stream("frontend", pabst.TileRegion(i), 128, false))
		b.Attach(half+i, lo, pabst.Stream("batch", pabst.TileRegion(half+i), 128, false))
	}

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Let the governors converge, then measure.
	sys.Warmup(cycles)
	sys.Run(cycles)

	// One Snapshot is the coherent view of everything observable: window
	// metrics plus per-class, per-tile, and per-controller detail.
	snap := sys.Snapshot()
	f, bt := snap.Class(hi), snap.Class(lo)
	fmt.Printf("entitled shares:  %.2f / %.2f\n", f.EntitledShare, bt.EntitledShare)
	fmt.Printf("observed shares:  %.2f / %.2f\n", f.Share, bt.Share)
	fmt.Printf("bandwidth:        %.1f + %.1f = %.1f B/cycle (peak %.1f)\n",
		f.BytesPerCycle, bt.BytesPerCycle, f.BytesPerCycle+bt.BytesPerCycle,
		cfg.PeakBytesPerCycle())
	fmt.Printf("mean miss latency: frontend %.0f cycles, batch %.0f cycles\n",
		f.MissLatency, bt.MissLatency)

	// The trace shows the feedback loop at work: count saturated epochs
	// and read tile 0's final regulator registers from the event ring.
	satEpochs := 0
	var last pabst.Event
	for _, e := range observer.Events() {
		if e.Kind == pabst.KindGovernor && e.Unit == 0 {
			last = e
			if e.Sat {
				satEpochs++
			}
		}
	}
	fmt.Printf("trace: %d events, tile-0 governor ended at M=%d (period %d), %d/%d traced epochs saturated\n",
		observer.Total(), last.M, last.Period, satEpochs, snap.Epochs)
}
