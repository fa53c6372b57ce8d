package pabst

import (
	"fmt"
	"testing"
)

// TestWeightRatioInvariance is a metamorphic relation: Eq. 5 depends only
// on weight ratios, so one machine at 7:3, 70:30 and 7000:3000 has equal
// strides, an equal fingerprint (weights are not structural) and, after
// the same run, byte-equal window metrics, governor multipliers and
// per-class IPC and latency — the inputs of a result fingerprint.
func TestWeightRatioInvariance(t *testing.T) {
	var want string
	for _, k := range []uint64{1, 10, 1000} {
		cfg := Scaled8Config()
		cfg.PABST.EpochCycles, cfg.BWWindow = 2000, 2000
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
		fp, _ := sys.Fingerprint()
		snap := sys.Snapshot()
		got := fmt.Sprintf("strides=%d:%d machine=%x metrics=%+v gov=%v", sys.reg.Stride(hi), sys.reg.Stride(lo), fp, snap.Window, snap.GovernorMs())
		for _, c := range []ClassID{hi, lo} {
			cs := snap.Class(c)
			got += fmt.Sprintf(" c%d=%v/%v/%v", c, cs.IPC, cs.TileIPCs, cs.MissLatency)
		}
		if k == 1 {
			want = got
		} else if got != want {
			t.Errorf("weights %d:%d diverge from 7:3\n--- 7:3\n%s\n--- got\n%s", 7*k, 3*k, want, got)
		}
	}
}
