package soc

import (
	"math"
	"testing"

	"pabst/internal/config"
	"pabst/internal/fault"
	"pabst/internal/pabst"
	"pabst/internal/qospolicy"
)

// TestEpochJitterToleratedWhenSmall validates the Section III-D claim:
// heartbeats need not arrive at every governor on the same cycle — as
// long as the skew is a small fraction of the epoch, the brief period
// with "incorrect" target rates averages out and the allocation holds.
// A fault plan is the one way to lag a heartbeat, so the skew is its
// SAT.DelayJitter.
func TestEpochJitterToleratedWhenSmall(t *testing.T) {
	run := func(jitter uint64) float64 {
		cfg := testCfg()
		if jitter > 0 {
			cfg.Faults = &fault.Plan{SAT: fault.SATPlan{DelayJitter: jitter}}
		}
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

// TestDegradationArmsWithTheFaultPlan pins the one switch for graceful
// degradation: a machine with an active fault plan, whatever it breaks,
// arms every governed tile's watchdog and, with global-lane governors,
// gossips resync while the governors disagree; a machine without one
// (or with a plan that injects nothing) arms neither. One governor is
// knocked out of lockstep by hand, so only the rule decides whether a
// heartbeat carries Resync.
func TestDegradationArmsWithTheFaultPlan(t *testing.T) {
	dramOnly, err := fault.Preset("dram-storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name             string
		plan             *fault.Plan
		perMC            bool
		watchdog, resync bool
	}{
		{"no-plan", nil, false, false, false},
		{"inactive-plan", &fault.Plan{NoC: fault.NoCPlan{DelayCycles: 100}}, false, false, false},
		{"dram-only", &dramOnly, false, true, true},
		{"dram-only-per-mc", &dramOnly, true, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testCfg8()
			cfg.Faults = c.plan
			cfg.PABST.PerMCGovernors = c.perMC
			sys, _, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 4, 4)
			for id, tile := range sys.tiles {
				if tile != nil && (tile.wd != nil) != c.watchdog {
					t.Fatalf("tile %d: watchdog armed %v, want %v", id, tile.wd != nil, c.watchdog)
				}
			}
			g := sys.tiles[0].src.(*pabst.Governor)
			for i := 0; i < 5; i++ {
				g.Monitor(0).Epoch(true)
			}
			sys.Run(20 * cfg.PABST.EpochCycles)
			if got := sys.FaultReport().ResyncEpochs > 0; got != c.resync {
				t.Fatalf("heartbeats carried Resync: %v, want %v", got, c.resync)
			}
		})
	}
}
