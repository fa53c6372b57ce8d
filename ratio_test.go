package pabst

import (
	"fmt"
	"testing"
)

// outcome73 runs the one machine both metamorphic relations below are
// stated on — eight cores, one channel, four 7-weight streamers against
// four 3-weight chasers — after applying edit to its configuration and
// scaling both weights by k. It returns the configuration the machine
// was built with and the inputs of a result fingerprint: strides, window
// metrics, governor multipliers, and per-class IPC, tile IPCs and miss
// latency.
func outcome73(t *testing.T, k uint64, edit func(*SystemConfig)) (machine SystemConfig, outcome string) {
	t.Helper()
	cfg := Scaled8Config()
	cfg.PABST.EpochCycles, cfg.BWWindow = 2000, 2000
	edit(&cfg)
	b := NewBuilder(cfg, ModePABST)
	hi := b.AddClass("hi", 7*k, cfg.L3Ways/2)
	lo := b.AddClass("lo", 3*k, cfg.L3Ways/2)
	for i := 0; i < 4; i++ {
		b.Attach(i, hi, Stream("hi", TileRegion(i), 128, false))
		b.Attach(4+i, lo, Chaser("lo", TileRegion(4+i), 4, uint64(i)+1))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Warmup(30_000)
	sys.Run(30_000)
	snap := sys.Snapshot()
	outcome = fmt.Sprintf("strides=%d:%d metrics=%+v gov=%v", sys.reg.Stride(hi), sys.reg.Stride(lo), snap.Window, snap.GovernorMs())
	for _, c := range []ClassID{hi, lo} {
		cs := snap.Class(c)
		outcome += fmt.Sprintf(" c%d=%v/%v/%v", c, cs.IPC, cs.TileIPCs, cs.MissLatency)
	}
	return sys.inner.Config(), outcome
}

// TestWeightRatioInvariance is a metamorphic relation: Eq. 5 depends only
// on weight ratios, so one machine at 7:3, 70:30 and 7000:3000 has equal
// strides and, after the same run, a byte-equal outcome.
func TestWeightRatioInvariance(t *testing.T) {
	_, want := outcome73(t, 1, func(*SystemConfig) {})
	for _, k := range []uint64{10, 1000} {
		if _, got := outcome73(t, k, func(*SystemConfig) {}); got != want {
			t.Errorf("weights %d:%d diverge from 7:3\n--- 7:3\n%s\n--- got\n%s", 7*k, 3*k, want, got)
		}
	}
}

// TestOneLaneIsTheGlobalGovernor is the second metamorphic relation:
// Section III-C1's governor per memory controller is the Section III-B
// governor with more lanes, so on a one-channel machine turning
// PerMCGovernors on reaches the machine's configuration and changes
// nothing a run can observe.
func TestOneLaneIsTheGlobalGovernor(t *testing.T) {
	if n := Scaled8Config().NumMCs; n != 1 {
		t.Fatalf("relation needs a one-channel machine, Scaled8Config has %d", n)
	}
	globalM, global := outcome73(t, 1, func(*SystemConfig) {})
	laneM, lane := outcome73(t, 1, func(c *SystemConfig) { c.PABST.PerMCGovernors = true })
	if lane != global {
		t.Errorf("one per-controller lane diverges from the global governor\n--- global\n%s\n--- permc\n%s", global, lane)
	}
	if globalM.PABST.PerMCGovernors || !laneM.PABST.PerMCGovernors {
		t.Error("PerMCGovernors did not reach the machine's configuration")
	}
}
