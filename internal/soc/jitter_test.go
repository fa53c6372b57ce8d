package soc

import (
	"math"
	"pabst/internal/config"
	"testing"

	"pabst/internal/qospolicy"
)

// TestEpochJitterToleratedWhenSmall validates the Section III-D claim:
// heartbeats need not arrive at every governor on the same cycle — as
// long as the skew is a small fraction of the epoch, the brief period
// with "incorrect" target rates averages out and the allocation holds.
func TestEpochJitterToleratedWhenSmall(t *testing.T) {
	run := func(jitter uint64) float64 {
		cfg := testCfg()
		cfg.PABST.EpochJitter = jitter
		sys, hi, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
		sys.Warmup(150_000)
		sys.Run(150_000)
		return sys.Metrics().ShareOf(hi.ID)
	}
	sync := run(0)
	skewed := run(200) // 10% of the 2000-cycle test epoch

	if math.Abs(sync-0.7) > 0.07 {
		t.Fatalf("synchronous baseline share %.2f", sync)
	}
	if math.Abs(skewed-0.7) > 0.08 {
		t.Fatalf("10%% epoch skew broke the allocation: share %.2f", skewed)
	}
	if math.Abs(skewed-sync) > 0.05 {
		t.Fatalf("skewed allocation %.2f drifted from synchronous %.2f", skewed, sync)
	}
}

func TestEpochJitterValidation(t *testing.T) {
	cfg := testCfg()
	cfg.PABST.EpochJitter = cfg.PABST.EpochCycles // >= epoch: nonsense
	if err := cfg.Validate(); err == nil {
		t.Fatal("jitter >= epoch accepted")
	}
}

// TestLaggedHeartbeatOneCopyPerEpoch pins the delayed-delivery cost:
// under gossip fanout every tile's heartbeat is lagged, and the epoch's
// messages share one copy of the saturation vector instead of carrying
// one each.
func TestLaggedHeartbeatOneCopyPerEpoch(t *testing.T) {
	cfg := config.MeshScaled(16, 16)
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 1 << 40 // no series sample during the measured run
	sys, _ := burstySystem(t, cfg)
	// A slice inbox holds the requests in flight toward it, and on this
	// mesh its high-water mark creeps from 4 to 8 for millions of cycles
	// (22 of 256 slices are still at 4 after 1.6M). Those one-off growths
	// are not the heartbeat's, so the inboxes start past them.
	for _, sl := range sys.slices {
		sl.inbox.Grow(8)
	}
	sys.Run(200_000) // settle the delivery queue, pools and rings
	const epochs = 5
	allocs := testing.AllocsPerRun(3, func() { sys.Run(epochs * cfg.PABST.EpochCycles) })
	if allocs > epochs {
		t.Errorf("%v allocations over %d epochs on %d tiles, want at most one per epoch",
			allocs, epochs, cfg.NumTiles())
	}
}
