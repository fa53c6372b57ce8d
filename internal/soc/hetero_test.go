package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// buildHeteroScenario puts one busy streamer and seven nearly idle
// threads in class A, against a full 8-tile streaming class B, at equal
// class weights on the 32-core system (16 tiles per class).
func buildHeteroScenario(t *testing.T, hetero bool) (*System, *qos.Class, *qos.Class) {
	t.Helper()
	cfg := testCfg()
	cfg.PABST.HeterogeneousThreads = hetero
	reg := qos.NewRegistry()
	a := reg.MustAdd("mixed", 1, cfg.L3Ways/2)
	b := reg.MustAdd("busy", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	// Class A: tile 0 streams hard; tiles 1-15 run an L2-resident loop
	// (alive, counted in threads_c, but almost no memory demand).
	if err := sys.Attach(0, a.ID, workload.NewStream("hot", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		quiet := workload.Region{Base: tileRegion(i).Base, Size: 64 << 10} // fits L2
		if err := sys.Attach(i, a.ID, workload.NewStream("quiet", quiet, 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	// Class B: 16 busy streamers.
	for i := 16; i < 32; i++ {
		if err := sys.Attach(i, b.ID, workload.NewStream("busy", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, a, b
}

// TestHeterogeneousThreadsLiftStarvedHotThread demonstrates the Section
// V-B extension: with even intra-class splitting, a class's single busy
// thread is capped at 1/16 of the class rate; with demand feedback it
// receives nearly the whole class allocation.
func TestHeterogeneousThreadsLiftStarvedHotThread(t *testing.T) {
	run := func(hetero bool) float64 {
		sys, a, _ := buildHeteroScenario(t, hetero)
		sys.Warmup(150_000)
		sys.Run(150_000)
		return sys.Metrics().BytesPerCycle(a.ID)
	}
	even := run(false)
	hetero := run(true)
	if hetero < 2*even {
		t.Fatalf("demand feedback lifted the hot thread only %.1f -> %.1f B/cyc", even, hetero)
	}
}

func TestHeterogeneousThreadsKeepClassProportions(t *testing.T) {
	// With demand feedback on and both classes fully busy (the uniform
	// case), inter-class proportionality must be unchanged.
	cfg := testCfg()
	cfg.PABST.HeterogeneousThreads = true
	sys, hi, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
	sys.Warmup(150_000)
	sys.Run(150_000)
	if sh := sys.Metrics().ShareOf(hi.ID); sh < 0.62 || sh > 0.78 {
		t.Fatalf("hetero mode broke inter-class proportions: hi share %.2f", sh)
	}
}

func TestHeteroPerMCConflictRejected(t *testing.T) {
	cfg := testCfg()
	cfg.PABST.HeterogeneousThreads = true
	cfg.PABST.PerMCGovernors = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("hetero + per-MC accepted")
	}
}
