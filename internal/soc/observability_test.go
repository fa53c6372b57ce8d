package soc

import (
	"testing"

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
	m, dm, period, ok := sys.GovernorState(0)
	if !ok || m == 0 || dm == 0 {
		t.Fatalf("GovernorState = %d,%d,%d,%v", m, dm, period, ok)
	}
	// Idle tile and out-of-range report not-ok.
	if _, _, _, ok := sys.GovernorState(1); ok {
		t.Fatal("idle tile reported governor state")
	}
	if _, _, _, ok := sys.GovernorState(-1); ok {
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
	if _, _, _, ok := sys.GovernorState(0); ok {
		t.Fatal("target-only tile reported a source governor")
	}
}

func TestGovernorStatePerMC(t *testing.T) {
	cfg := testCfg8()
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
	if _, _, _, ok := sys.GovernorState(0); !ok {
		t.Fatal("per-MC governor not reported")
	}
}

func TestMCUtilizationsWindowed(t *testing.T) {
	cfg := testCfg()
	sys, _, _ := twoClassStreams(t, cfg, qospolicy.None, 1, 1, 16, 16)
	sys.Warmup(50_000)
	sys.Run(50_000)
	utils := sys.MCUtilizations()
	if len(utils) != cfg.NumMCs {
		t.Fatalf("%d channels reported", len(utils))
	}
	for i, u := range utils {
		if u < 0.5 || u > 1.0 {
			t.Fatalf("channel %d utilization %.2f under a flood", i, u)
		}
	}
	// A fresh window right after reset reports zero.
	sys.ResetStats()
	for _, u := range sys.MCUtilizations() {
		if u != 0 {
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
	occ := sys.L3OccupancyOf(a.ID)
	if occ == 0 {
		t.Fatal("no occupancy recorded")
	}
	if occ > 256<<10 {
		t.Fatalf("occupancy %d exceeds the working set", occ)
	}
	// Snapshot fills every class from one pass per slice; it must agree
	// with the per-class accessor.
	for _, cs := range sys.Snapshot().Classes {
		if want := sys.L3OccupancyOf(cs.ID); cs.L3OccupancyBytes != want {
			t.Errorf("class %s: Snapshot occupancy %d, L3OccupancyOf %d", cs.Name, cs.L3OccupancyBytes, want)
		}
	}
}
