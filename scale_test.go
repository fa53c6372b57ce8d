package pabst_test

import (
	"testing"

	"pabst"
)

// TestEventKernelMeshScaled pins the event kernel on a 64-tile mesh in
// the six shapes its wake graph exists for: staggered bursty tiles under
// each source policy that exposes an issue schedule, cores blocked on a
// full MSHR table behind dependent chains, and read streams blocked on a
// full MSHR table while their pacers hold the queue. In every cell the
// default kernel must match the cycle-stepped oracle byte for byte with
// no late wake, jump the clock, and visit tiles on at most 5% of
// tile-cycles (a polled tile reads about 1.0) — the count a wall-clock
// speedup floor stands for. The streams must stay under 0.55%: a blocked
// core's refills and gap expiries are no events.
func TestEventKernelMeshScaled(t *testing.T) {
	const cycles, tiles = 60_000, 64
	type shape int
	const (
		bursty shape = iota
		chaser       // chasers at twice the MSHR table depth
		stream       // one read stream per tile
	)
	cells := []struct {
		name   string
		policy string // source policy; "" keeps the PABST governor
		shape  shape
		maxOcc float64
	}{
		{"bursty-pabst", "", bursty, 0.05},
		{"bursty-static", "static", bursty, 0.05},
		{"bursty-bankreg", "bankreg", bursty, 0.05},
		{"bursty-lmsar", "lmsar", bursty, 0.05},
		{"mshr-saturated", "", chaser, 0.05},
		{"stream-saturated", "", stream, 0.0055},
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
					switch cell.shape {
					case chaser:
						b.Attach(i, c, pabst.Chaser("ch", pabst.TileRegion(i), 2*cfg.MaxMSHRs, uint64(i)+1))
					case stream:
						b.Attach(i, c, pabst.Stream("st", pabst.TileRegion(i), 128, false))
					default:
						// Gaps staggered per tile so bursts desynchronize:
						// the machine as a whole is rarely idle, each tile
						// mostly is.
						gap := 15_000 + (i*977)%10_000
						b.Attach(i, c, pabst.BurstyTraffic("b", pabst.TileRegion(i), 16, gap, uint64(i)+1))
					}
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
			if occ > cell.maxOcc {
				t.Errorf("tile occupancy %.4f (%d visits over %d cycles x %d tiles), want <= %g",
					occ, visited, snap.Cycle, registered, cell.maxOcc)
			}
			t.Logf("tile occupancy %.4f, %d of %d cycles skipped", occ, snap.SkippedCycles, snap.Cycle)
		})
	}
}
