package soc

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// buildSkewed creates a system where half the tiles stream traffic hashed
// entirely to channel 0 (hot) and half stream uniformly, under full PABST
// with or without per-controller governors.
func buildSkewed(t *testing.T, perMC bool) *System {
	t.Helper()
	cfg := testCfg()
	cfg.PABST.PerMCGovernors = perMC
	reg := qos.NewRegistry()
	hot := reg.MustAdd("hot", 1, cfg.L3Ways/2)
	uni := reg.MustAdd("uniform", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(a mem.Addr) bool { return MCIndex(a, cfg.NumMCs) == 0 }
	for i := 0; i < 16; i++ {
		if err := sys.Attach(i, hot.ID, workload.NewFilteredStream("hot", tileRegion(i), 128, false, keep)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 16; i < 32; i++ {
		if err := sys.Attach(i, uni.ID, workload.NewStream("uni", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPerMCGovernorsRecoverSkewedUtilization reproduces the Section
// III-C1 discussion: with skewed traffic, the global wired-OR throttles
// everything down to the hottest channel's rate, while per-controller
// governors keep the cold channels busy.
func TestPerMCGovernorsRecoverSkewedUtilization(t *testing.T) {
	run := func(perMC bool) (total float64, cold float64) {
		sys := buildSkewed(t, perMC)
		sys.Warmup(150_000)
		sys.Run(150_000)
		mcs := sys.Snapshot().MCs
		for i, mc := range mcs {
			total += mc.Utilization
			if i > 0 {
				cold += mc.Utilization
			}
		}
		return total / float64(len(mcs)), cold / float64(len(mcs)-1)
	}
	globalTotal, globalCold := run(false)
	perMCTotal, perMCCold := run(true)

	// Per-channel regulation must recover cold-channel utilization and
	// overall throughput.
	if perMCCold <= globalCold+0.05 {
		t.Fatalf("per-MC governors did not lift cold channels: global %.2f, per-MC %.2f",
			globalCold, perMCCold)
	}
	if perMCTotal <= globalTotal {
		t.Fatalf("per-MC governors did not improve total utilization: global %.2f, per-MC %.2f",
			globalTotal, perMCTotal)
	}
}

func TestPerMCGovernorsStillProportionalWhenUniform(t *testing.T) {
	// With uniform traffic, per-controller regulation must preserve the
	// 7:3 proportional split.
	cfg := testCfg()
	cfg.PABST.PerMCGovernors = true
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", 7, cfg.L3Ways/2)
	lo := reg.MustAdd("lo", 3, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sys.Attach(i, hi.ID, workload.NewStream("hi", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Attach(16+i, lo.ID, workload.NewStream("lo", tileRegion(16+i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(150_000)
	sys.Run(150_000)
	m := sys.Metrics()
	if sh := m.ShareOf(hi.ID); sh < 0.62 || sh > 0.78 {
		t.Fatalf("per-MC governors broke proportionality: hi share %.2f, want ~0.70", sh)
	}
}
