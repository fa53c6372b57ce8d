package pabst_test

import (
	"testing"

	"pabst"
)

// TestEventKernelMeshScaled pins the event kernel on a 64-tile mesh in
// the five shapes its wake graph exists for: staggered bursty tiles under
// each source policy that exposes an issue schedule, and cores blocked on
// a full MSHR table. In every cell the default kernel must match the
// cycle-stepped oracle byte for byte with no late wake, jump the clock,
// and visit tiles on at most 5% of tile-cycles (a polled tile reads about
// 1.0) — the count a wall-clock speedup floor stands for.
func TestEventKernelMeshScaled(t *testing.T) {
	const cycles, tiles = 60_000, 64
	cells := []struct {
		name   string
		policy string // source policy; "" keeps the PABST governor
		mshr   bool   // chasers at twice the MSHR table depth
	}{
		{"bursty-pabst", "", false},
		{"bursty-static", "static", false},
		{"bursty-bankreg", "bankreg", false},
		{"bursty-lmsar", "lmsar", false},
		{"mshr-saturated", "", true},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			run := func(kernel string) (string, pabst.Snapshot) {
				cfg := pabst.MeshScaledConfig(8, 8)
				cfg.PABST.EpochCycles = 10_000
				cfg.BWWindow = 10_000
				b := pabst.NewBuilder(cfg, pabst.ModePABST,
					pabst.WithKernel(kernel), pabst.WithPolicy(cell.policy, ""))
				c := b.AddClass("c", 1, cfg.L3Ways)
				for i := 0; i < cfg.NumTiles(); i++ {
					if cell.mshr {
						b.Attach(i, c, pabst.Chaser("ch", pabst.TileRegion(i), 2*cfg.MaxMSHRs, uint64(i)+1))
						continue
					}
					// Gaps staggered per tile so bursts desynchronize: the
					// machine as a whole is rarely idle, each tile mostly is.
					gap := 15_000 + (i*977)%10_000
					b.Attach(i, c, pabst.BurstyTraffic("b", pabst.TileRegion(i), 16, gap, uint64(i)+1))
				}
				sys, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				sys.Run(cycles)
				return renderState(sys), sys.Snapshot()
			}
			want, _ := run("cycle")
			got, snap := run("")
			if got != want {
				t.Errorf("default kernel diverged from the reference loop\n--- cycle\n%s--- default\n%s", want, got)
			}
			if snap.LateWakes != 0 {
				t.Errorf("LateWakes = %d, want 0", snap.LateWakes)
			}
			if snap.SkippedCycles == 0 {
				t.Error("no cycles skipped: the event kernel never jumped the clock")
			}
			var visited uint64
			registered := 0
			for _, ec := range snap.EventClasses {
				if ec.Class == "tile" {
					visited, registered = ec.Visited, ec.Registered
				}
			}
			if registered != tiles {
				t.Fatalf("tile class registers %d components, want %d", registered, tiles)
			}
			occ := float64(visited) / (float64(snap.Cycle) * float64(registered))
			if occ > 0.05 {
				t.Errorf("tile occupancy %.4f (%d visits over %d cycles x %d tiles), want <= 0.05",
					occ, visited, snap.Cycle, registered)
			}
			t.Logf("tile occupancy %.4f, %d of %d cycles skipped", occ, snap.SkippedCycles, snap.Cycle)
		})
	}
}
