package soc

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

func TestGovernorStateExposure(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(10_000)
	sn := sys.Snapshot()
	if g := sn.Tile(0).Governor; !g.OK || g.M == 0 || g.DM == 0 {
		t.Fatalf("governor state = %+v", g)
	}
	// Idle and out-of-range tiles have no snapshot at all.
	if sn.Tile(1) != nil {
		t.Fatal("idle tile reported governor state")
	}
	if sn.Tile(-1) != nil {
		t.Fatal("out-of-range tile reported governor state")
	}
}

func TestGovernorStateAbsentInTargetOnly(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.TargetOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	if sn := sys.Snapshot(); sn.Tile(0).Governor.OK {
		t.Fatal("target-only tile reported a source governor")
	}
}

func TestGovernorStatePerMC(t *testing.T) {
	cfg := testCfg() // four channels: one lane would be the global governor
	cfg.PABST.PerMCGovernors = true
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(10_000)
	if sn := sys.Snapshot(); !sn.Tile(0).Governor.OK || !sn.Tile(0).Governor.Multi {
		t.Fatal("per-MC governor not reported")
	}
}

func TestMCUtilizationsWindowed(t *testing.T) {
	cfg := testCfg()
	sys, _, _ := twoClassStreams(t, cfg, qospolicy.None, 1, 1, 16, 16)
	sys.Warmup(50_000)
	sys.Run(50_000)
	mcs := sys.Snapshot().MCs
	if len(mcs) != cfg.NumMCs {
		t.Fatalf("%d channels reported", len(mcs))
	}
	for i, mc := range mcs {
		if u := mc.Utilization; u < 0.5 || u > 1.0 {
			t.Fatalf("channel %d utilization %.2f under a flood", i, u)
		}
	}
	// A fresh window right after reset reports zero.
	sys.ResetStats()
	for _, mc := range sys.Snapshot().MCs {
		if mc.Utilization != 0 {
			t.Fatal("zero-cycle window reported utilization")
		}
	}
}

func TestL3OccupancyInternal(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 1, cfg.L3Ways/2)
	reg.MustAdd("b", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	region := workload.Region{Base: 1 << 41, Size: 256 << 10}
	if err := sys.Attach(0, a.ID, workload.NewStream("s", region, 64, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)
	sn := sys.Snapshot()
	occ := sn.Class(a.ID).L3OccupancyBytes
	if occ == 0 {
		t.Fatal("no occupancy recorded")
	}
	if occ > 256<<10 {
		t.Fatalf("occupancy %d exceeds the working set", occ)
	}
	// Snapshot fills every class from one pass per slice; it must agree
	// with each slice's own count, class by class.
	for _, cs := range sn.Classes {
		var want uint64
		for _, sl := range sys.slices {
			var lines [mem.MaxClasses]int
			sl.cache.OccupancyInto(&lines)
			want += uint64(lines[cs.ID]) * mem.LineSize
		}
		if cs.L3OccupancyBytes != want {
			t.Errorf("class %s: Snapshot occupancy %d, slices hold %d", cs.Name, cs.L3OccupancyBytes, want)
		}
	}
}
