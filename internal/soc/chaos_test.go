package soc

import (
	"math"
	"testing"
	"testing/quick"

	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// TestSystemChaosProperty builds random system configurations — random
// workload mixes, weights, modes, and feature flags — and checks the
// invariants that must hold for any of them:
//
//   - the run completes without panicking,
//   - delivered bandwidth is conserved (bytes = lines served x 64),
//   - every attached class makes forward progress,
//   - shares over all classes sum to ~1 when any traffic flowed,
//   - a second identical run is bit-identical.
func TestSystemChaosProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property is slow")
	}
	build := func(seed [8]byte) *System {
		cfg := testCfg8()
		cfg.ModelNoC = seed[1]%3 == 0
		cfg.PABST.HeterogeneousThreads = seed[2]%2 == 0
		if seed[2]%2 != 0 {
			cfg.PABST.PerMCGovernors = seed[3]%2 == 0
		}
		if seed[4] != 0 { // heartbeats lagged by up to a quarter epoch
			cfg.Faults = &fault.Plan{SAT: fault.SATPlan{DelayJitter: uint64(seed[4])}}
		}
		mode := qospolicy.Presets()[seed[5]%5]

		reg := qos.NewRegistry()
		a := reg.MustAdd("a", uint64(seed[6])%7+1, cfg.L3Ways/2)
		b := reg.MustAdd("b", uint64(seed[7])%7+1, cfg.L3Ways/2)
		sys, err := New(cfg, reg, mode)
		if err != nil {
			t.Fatalf("seed %v: %v", seed, err)
		}
		mkGen := func(i int, kind byte) workload.Generator {
			r := tileRegion(i)
			switch kind % 3 {
			case 0:
				return workload.NewStream("s", r, 128, kind%2 == 0)
			case 1:
				return workload.NewChaser("c", r, int(kind)%6+1, uint64(i)+1)
			default:
				p, _ := workload.SpecByName("milc")
				g, err := workload.NewSpec(p, r, uint64(i)+1)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
		}
		for i := 0; i < 8; i++ {
			cls := a.ID
			if i >= 4 {
				cls = b.ID
			}
			if err := sys.Attach(i, cls, mkGen(i, seed[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Finalize(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	f := func(seed [8]byte) bool {
		run := func() ([mem.MaxClasses]uint64, uint64, uint64, float64, float64) {
			sys := build(seed)
			sys.Run(40_000)
			sn := sys.Snapshot()
			reads, writes, _ := mcTotals(sys)
			return sn.Window.BytesByClass, reads, writes, sn.Class(0).IPC, sn.Class(1).IPC
		}
		bytes1, reads, writes, ipcA, ipcB := run()
		// Conservation: billed bytes equal lines served.
		var total uint64
		for _, b := range bytes1 {
			total += b
		}
		if total != (reads+writes)*mem.LineSize {
			return false
		}
		// Forward progress for both classes.
		if ipcA <= 0 || ipcB <= 0 {
			return false
		}
		// Determinism.
		bytes2, reads2, writes2, ipcA2, ipcB2 := run()
		return bytes1 == bytes2 && reads == reads2 && writes == writes2 && ipcA == ipcA2 && ipcB == ipcB2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultChaosProperty runs the 7:3 two-class stream scenario under
// every fault preset with the degradation machinery armed and checks the
// invariants that must survive any plan:
//
//   - delivered bandwidth is conserved (bytes = lines served x 64),
//   - both classes make forward progress,
//   - the Eq. 5 inverse-stride proportion holds within tolerance — the
//     graceful-degradation fallback preserves the ratio even when the
//     feedback signal itself is under attack,
//   - a second identical run is bit-identical (fault injection included).
func TestFaultChaosProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("fault chaos sweep is slow")
	}
	for _, name := range fault.PresetNames() {
		t.Run(name, func(t *testing.T) {
			plan, err := fault.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func() ([mem.MaxClasses]uint64, uint64, uint64, float64, []uint64) {
				cfg := testCfg8()
				// Epoch long enough for the sat-delay preset's 3000-cycle
				// worst-case heartbeat lag.
				cfg.PABST.EpochCycles = 4000
				cfg.BWWindow = 4000
				cfg.Faults = &plan
				sys, hi, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 4, 4)
				// One observed stretch from cold start, so the window and
				// the lifetime controller counters cover the same cycles.
				sys.Run(250_000)
				sn := sys.Snapshot()
				reads, writes, _ := mcTotals(sys)
				return sn.Window.BytesByClass, reads, writes, sn.Class(hi.ID).Share, sn.GovernorMs()
			}
			bytes1, reads, writes, shareHi, ms1 := run()
			var total uint64
			for _, b := range bytes1 {
				total += b
			}
			if total != (reads+writes)*mem.LineSize {
				t.Fatalf("bandwidth not conserved: %d bytes vs %d ops", total, reads+writes)
			}
			if bytes1[0] == 0 || bytes1[1] == 0 {
				t.Fatal("a class made no progress under faults")
			}
			if math.Abs(shareHi-0.7) > 0.15 {
				t.Fatalf("Eq.5 proportion lost under %s: hi share %.3f, want 0.7±0.15", name, shareHi)
			}
			bytes2, reads2, writes2, shareHi2, ms2 := run()
			if bytes1 != bytes2 || reads != reads2 || writes != writes2 || shareHi != shareHi2 {
				t.Fatalf("faulted run not deterministic under %s", name)
			}
			for i := range ms1 {
				if ms1[i] != ms2[i] {
					t.Fatalf("governor state not deterministic under %s", name)
				}
			}
		})
	}
}

// TestPartitionDivergenceAndResync is the acceptance scenario: a SAT
// partition cuts a quarter of the governors off the broadcast. The plan
// arms the watchdog + resync, and the system re-converges to lockstep
// within pabst.ResyncWithin epochs after the partition heals. (That
// governors left without the machinery stay apart is pinned in
// internal/pabst, TestSilencedGovernorNeedsTheMachinery.)
func TestPartitionDivergenceAndResync(t *testing.T) {
	cfg := testCfg() // 32 cores: tiles [0,8) are a strict subset
	cfg.Faults = &fault.Plan{SAT: fault.SATPlan{
		PartTileLo: 0, PartTileHi: 8, PartFromEpoch: 10, PartToEpoch: 30,
	}}
	sys, _, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
	// Partition spans epochs [10,30) = cycles [20k,60k); run well past
	// heal + the resync bound.
	sys.Run(100_000)
	sn := sys.Snapshot()
	rep, ms := sys.FaultReport(), sn.GovernorMs()
	spread := func(ms []uint64) uint64 {
		lo, hi := ms[0], ms[0]
		for _, m := range ms {
			lo, hi = min(lo, m), max(hi, m)
		}
		return hi - lo
	}
	if rep.DivergedEpochs == 0 {
		t.Fatal("degraded run never observed the divergence it must repair")
	}
	if s := spread(ms); s != 0 {
		t.Fatalf("governors still diverged after heal + resync: spread %d, Ms %v", s, ms)
	}
	if rep.Diverged {
		t.Fatal("fault report still flags divergence after resync")
	}
	// The last episode must close within partition length + the resync
	// bound (plus slack for detection lag).
	bound := uint64(30-10) + pabst.ResyncWithin + 4
	if rep.ReconvergeEpochs == 0 || rep.ReconvergeEpochs > bound {
		t.Fatalf("re-convergence took %d epochs, want (0, %d]", rep.ReconvergeEpochs, bound)
	}
}

// TestPartitionDivergenceObservedPerMC pins that the divergence read-out
// sees per-controller governors: under PerMCGovernors the same SAT
// partition starves tiles [0,8) of heartbeats, their watchdogs decay
// every lane toward the fallback while the rest keep tracking SAT, and
// the fault report must say so. (Resynchronization stays global-only, so
// nothing here repairs the spread; it only has to be reported.)
func TestPartitionDivergenceObservedPerMC(t *testing.T) {
	plan, err := fault.Preset("sat-partition")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg() // 32 cores, four channels
	cfg.Faults = &plan
	cfg.PABST.PerMCGovernors = true
	sys, _, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
	sys.Run(100_000) // the partition spans cycles [20k,60k)
	rep := sys.FaultReport()
	if rep.Decays == 0 {
		t.Fatal("precondition: no partitioned watchdog ever decayed")
	}
	if rep.DivergedEpochs == 0 || rep.DivergenceMax == 0 {
		t.Fatalf("per-controller governors decayed %d times yet no divergence was observed: %+v", rep.Decays, rep)
	}
}
