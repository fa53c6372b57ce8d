// Ablation benches for the design choices with no sweep axis
// (`pabstsweep -param <axis>` runs the rest). Each runs the canonical 7:3
// two-stream-class allocation with one knob moved and reports how well
// the split holds and how much throughput the system sustains:
//
//	go test -bench=Ablation -benchmem
package pabst_test

import (
	"fmt"
	"math"
	"testing"

	"pabst"
)

// runStreams73 runs the canonical 7:3 allocation and returns (hi share,
// total B/cyc).
func runStreams73(b *testing.B, mut func(*pabst.SystemConfig)) (float64, float64) {
	b.Helper()
	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	mut(&cfg)
	bl := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := bl.AddClass("hi", 7, cfg.L3Ways/2)
	lo := bl.AddClass("lo", 3, cfg.L3Ways/2)
	for i := 0; i < 16; i++ {
		bl.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		bl.Attach(16+i, lo, pabst.Stream("lo", pabst.TileRegion(16+i), 128, false))
	}
	sys, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys.Warmup(100_000)
	sys.Run(150_000)
	m := sys.Metrics()
	return m.ShareOf(hi), m.BytesPerCycle(hi) + m.BytesPerCycle(lo)
}

func reportAllocation(b *testing.B, label string, share, bpc float64) {
	b.Helper()
	b.ReportMetric(math.Abs(share-0.7)/0.7*100, label+"/err%")
	b.ReportMetric(bpc, label+"/B-per-cyc")
}

func BenchmarkAblationPerMCGovernors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		share, bpc := runStreams73(b, func(c *pabst.SystemConfig) { c.PABST.PerMCGovernors = true })
		reportAllocation(b, "per-mc", share, bpc)
		share, bpc = runStreams73(b, func(c *pabst.SystemConfig) {})
		reportAllocation(b, "global", share, bpc)
	}
}

// BenchmarkAblationEpochJitter lags each heartbeat by up to j cycles
// through a fault plan's SAT.DelayJitter, the one way to lag it.
func BenchmarkAblationEpochJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, j := range []uint64{0, 200, 1000} {
			share, bpc := runStreams73(b, func(c *pabst.SystemConfig) {
				if j > 0 {
					c.Faults = &pabst.FaultPlan{}
					c.Faults.SAT.DelayJitter = j
				}
			})
			reportAllocation(b, fmt.Sprintf("jitter-%d", j), share, bpc)
		}
	}
}
