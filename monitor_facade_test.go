package pabst_test

import (
	"testing"

	"pabst"
	"pabst/internal/workload"
)

// TestL3OccupancyMonitor exercises the Section II-B LLC occupancy query
// through the public API: a cache-resident class's occupancy converges
// to its footprint and stays inside its partition allowance.
func TestL3OccupancyMonitor(t *testing.T) {
	cfg := pabst.Scaled8Config()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	res := b.AddClass("resident", 1, cfg.L3Ways/2)
	agg := b.AddClass("aggressor", 1, cfg.L3Ways/2)

	// 512 KiB footprint at a 64 B stride (every line touched): bigger
	// than the 256 KiB L2, far under the class's 2 MiB L3 partition.
	footprint := uint64(512 << 10)
	region := pabst.Region{Base: 1 << 40, Size: footprint}
	b.Attach(0, res, pabst.Stream("resident", region, 64, false))
	for i := 1; i < 8; i++ {
		b.Attach(i, agg, pabst.Stream("agg", pabst.TileRegion(i), 128, false))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup(400_000)

	snap := sys.Snapshot()
	occ := snap.Class(res).L3OccupancyBytes
	if occ < footprint/2 {
		t.Fatalf("resident class occupies %d B of its %d B footprint", occ, footprint)
	}
	partition := uint64(cfg.L3Ways/2) * uint64(cfg.L3TotalBytes()) / uint64(cfg.L3Ways)
	if occ > partition {
		t.Fatalf("occupancy %d exceeds the class partition %d", occ, partition)
	}
	// The aggressor's occupancy is bounded by its own partition too.
	if aggOcc := snap.Class(agg).L3OccupancyBytes; aggOcc > partition {
		t.Fatalf("aggressor occupancy %d exceeds its partition %d", aggOcc, partition)
	}
}

// TestRecordReplayThroughSystem pins that a generator's ops, drawn
// ahead of time and replayed, reproduce its system-level behavior.
func TestRecordReplayThroughSystem(t *testing.T) {
	run := func(gen pabst.Generator) pabst.Metrics {
		cfg := pabst.Scaled8Config()
		cfg.PABST.EpochCycles = 2000
		cfg.BWWindow = 2000
		b := pabst.NewBuilder(cfg, pabst.ModeNone)
		c := b.AddClass("c", 1, cfg.L3Ways)
		b.Attach(0, c, gen)
		sys, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(50_000)
		return sys.Metrics()
	}

	direct := run(pabst.Chaser("c", pabst.TileRegion(0), 4, 7))

	// Draw more ops than the run consumes, so the replay never wraps.
	gen := pabst.Chaser("c", pabst.TileRegion(0), 4, 7)
	ops := make([]workload.Op, 1<<16)
	for i := range ops {
		gen.Next(&ops[i])
	}
	replay, err := workload.NewReplayer("replayed", ops)
	if err != nil {
		t.Fatal(err)
	}
	replayed := run(replay)
	if direct != replayed {
		t.Fatalf("replay diverged:\n%+v\n%+v", direct, replayed)
	}
}
