package soc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/config"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/regulate"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// fingerprint renders every externally observable statistic of a run so
// two runs can be compared byte-for-byte.
func fingerprint(sys *System, classes ...mem.ClassID) string {
	var b strings.Builder
	sn := sys.Snapshot()
	fmt.Fprintf(&b, "metrics=%+v\n", sn.Window)
	for _, c := range classes {
		cs := sn.Class(c)
		fmt.Fprintf(&b, "class=%d ipc=%v tiles=%v missLat=%v mcLat=%v occ=%d\n",
			c, cs.IPC, cs.TileIPCs, cs.MissLatency, cs.MCReadLatency, cs.L3OccupancyBytes)
	}
	fmt.Fprintf(&b, "gov=%v\n", sn.GovernorMs())
	r, w, q := mcTotals(sys)
	fmt.Fprintf(&b, "mc=%d/%d/%d\n", r, w, q)
	return b.String()
}

// classOf reads one class out of a fresh snapshot.
func classOf(sys *System, c mem.ClassID) *ClassSnapshot {
	sn := sys.Snapshot()
	return sn.Class(c)
}

// mcTotals sums the controllers' lifetime reads and writes and their
// current front-end read queue depths.
func mcTotals(sys *System) (reads, writes uint64, queuedReads int) {
	for _, mc := range sys.Snapshot().MCs {
		reads += mc.Reads
		writes += mc.Writes
		queuedReads += mc.QueuedReads
	}
	return
}

// burstySystem builds a system whose tiles alternate short demand bursts
// with long idle gaps — the workload shape the event kernel skips
// through.
func burstySystem(t *testing.T, cfg config.System) (*System, mem.ClassID) {
	t.Helper()
	reg := qos.NewRegistry()
	c := reg.MustAdd("bursty", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NumTiles(); i++ {
		gen := workload.NewBursty("b", tileRegion(i), 32, 4000, uint64(i)+1)
		if err := sys.Attach(i, c.ID, gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, c.ID
}

// TestEventKernelBitIdentical asserts the event-kernel tentpole at the
// system level: per-component event dispatch produces byte-identical
// statistics to the cycle-stepped reference loop on a saturated machine,
// and the default configuration selects it.
func TestEventKernelBitIdentical(t *testing.T) {
	run := func(kernel string) string {
		cfg := testCfg()
		cfg.Kernel = kernel
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		if sys.kernel.Reference != (kernel == config.KernelCycle) {
			t.Fatalf("Kernel=%q: reference mode = %v", kernel, sys.kernel.Reference)
		}
		sys.Warmup(10000)
		sys.Run(40000)
		return fingerprint(sys, hi.ID, lo.ID)
	}
	want := run(config.KernelCycle)
	for _, kernel := range []string{"", config.KernelEvent} {
		if got := run(kernel); got != want {
			t.Errorf("Kernel=%q diverged from the reference loop:\n--- cycle\n%s--- event\n%s", kernel, want, got)
		}
	}
}

// TestEventKernelBursty pins the event kernel on the idle-heavy shape it
// exists for: identical statistics to the reference loop, which skips
// nothing, with a meaningful share of cycles skipped.
func TestEventKernelBursty(t *testing.T) {
	run := func(kernel string) (string, uint64) {
		cfg := testCfg()
		cfg.Kernel = kernel
		sys, c := burstySystem(t, cfg)
		sys.Run(120000)
		return fingerprint(sys, c), sys.Snapshot().SkippedCycles
	}
	spin, skipped0 := run("cycle")
	ev, skipped := run("event")
	if skipped0 != 0 {
		t.Fatalf("reference loop reported %d skipped cycles", skipped0)
	}
	if spin != ev {
		t.Errorf("event kernel diverged on bursty workload:\n--- cycle\n%s--- event\n%s", spin, ev)
	}
	if skipped == 0 {
		t.Errorf("bursty workload skipped no cycles — event kernel never jumped the clock")
	}
	t.Logf("event kernel skipped %d of 120000 cycles", skipped)
}

// TestEventKernelWithFaults runs the event kernel under an active fault
// plan: per-sender fault streams must draw identically under event
// dispatch, and no wake may target an already-drained class.
func TestEventKernelWithFaults(t *testing.T) {
	run := func(kernel string) string {
		cfg := testCfg()
		cfg.Kernel = kernel
		cfg.Faults = &fault.Plan{
			SAT:  fault.SATPlan{DropProb: 0.1, DelayCycles: 500, DelayJitter: 1000},
			DRAM: fault.DRAMPlan{StallProb: 0.05, StallCycles: 1000},
			NoC:  fault.NoCPlan{DelayProb: 0.01, DelayCycles: 100},
		}
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		sys.Run(40000)
		if lw := sys.Snapshot().LateWakes; lw != 0 {
			t.Fatalf("%d late wakes with kernel=%s", lw, kernel)
		}
		return fingerprint(sys, hi.ID, lo.ID)
	}
	if want, got := run("cycle"), run("event"); got != want {
		t.Errorf("faulted event run diverged:\n--- cycle\n%s--- event\n%s", want, got)
	}
}

// perturbWakes arms a seeded periodic hook — its period and phase drawn
// from the seed — that on every fire wakes a few random memory
// controllers, L3 slices and tiles for the current cycle: spurious
// ticks, and catch-ups split wherever the hook lands, that the wake
// graph never asked for. Under the Sleeper contract (ticking a component
// before its next event is FastForward over that cycle) none of it may
// show in any outcome. The wakes are no-ops on the reference loop.
func perturbWakes(s *System, seed uint64) {
	rng := sim.NewRNG(seed)
	period := 1 + rng.Uint64()%61
	s.kernel.Every(period, rng.Uint64()%period, func(now uint64) {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				s.wakeMC(rng.Intn(len(s.mcs)), now)
			case 1:
				s.wakeSlice(rng.Intn(len(s.slices)), now)
			default:
				if id := rng.Intn(len(s.tiles)); s.tiles[id] != nil {
					s.wakeTile(id, now)
				}
			}
		}
	})
}

// TestWakePerturbationIsInvisible is the wake graph's soundness check by
// perturbation: on a sat32-shaped machine, a mix32-shaped one (write
// drains), one under controller freezes and bank stalls, and the modeled
// NoC (the ext-noc shape), runs perturbed with random spurious wakes
// produce the fingerprint and checkpoint bytes of the unperturbed event
// run and of the reference loop, with no late wake.
func TestWakePerturbationIsInvisible(t *testing.T) {
	// Few-KB caches: write streams evict dirty lines, so the controllers
	// drain writes, within the short run.
	small := func(kernel string) config.System {
		cfg := testCfg()
		cfg.Kernel = kernel
		cfg.L1Bytes, cfg.L2Bytes, cfg.L3SliceBytes = 2<<10, 8<<10, 16<<10
		return cfg
	}
	streams := func(cfg config.System) (*System, []mem.ClassID) {
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
		return sys, []mem.ClassID{hi.ID, lo.ID}
	}
	machines := []struct {
		name  string
		build func(kernel string) (*System, []mem.ClassID)
	}{
		{"sat32", func(kernel string) (*System, []mem.ClassID) {
			cfg := small(kernel)
			return streams(cfg)
		}},
		{"mix32", func(kernel string) (*System, []mem.ClassID) {
			cfg := small(kernel)
			reg := qos.NewRegistry()
			chase := reg.MustAdd("chaser", 3, cfg.L3Ways/2)
			wr := reg.MustAdd("wstream", 1, cfg.L3Ways/2)
			sys, err := New(cfg, reg, qospolicy.PABST)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := sys.Attach(i, chase.ID, workload.NewChaser("chaser", tileRegion(i), 8, uint64(i)+1)); err != nil {
					t.Fatal(err)
				}
				if err := sys.Attach(16+i, wr.ID, workload.NewStream("wstream", tileRegion(16+i), 128, true)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Finalize(); err != nil {
				t.Fatal(err)
			}
			return sys, []mem.ClassID{chase.ID, wr.ID}
		}},
		{"dram-faults", func(kernel string) (*System, []mem.ClassID) {
			cfg := small(kernel)
			cfg.Faults = &fault.Plan{DRAM: fault.DRAMPlan{StallProb: 0.3, StallCycles: 800, FreezeProb: 0.3, FreezeCycles: 500}}
			return streams(cfg)
		}},
		{"ext-noc", func(kernel string) (*System, []mem.ClassID) {
			cfg := small(kernel)
			cfg.ModelNoC = true
			return streams(cfg)
		}},
	}
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			run := func(kernel string, seed uint64) (string, []byte) {
				sys, classes := m.build(kernel)
				if seed != 0 {
					perturbWakes(sys, seed)
				}
				sys.Run(150_000)
				if lw := sys.kernel.LateWakes(); lw != 0 {
					t.Fatalf("kernel %q, perturbation seed %d: %d late wakes", kernel, seed, lw)
				}
				img, err := ckpt.Encode(ckpt.Header{}, sys)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(sys, classes...), img
			}
			want, wantImg := run(config.KernelCycle, 0)
			for _, seed := range []uint64{0, 1, 2} {
				got, img := run(config.KernelEvent, seed)
				if got != want {
					t.Errorf("perturbation seed %d: fingerprint diverged from the reference loop:\n--- cycle\n%s--- event\n%s", seed, want, got)
				}
				if !bytes.Equal(img, wantImg) {
					t.Errorf("perturbation seed %d: checkpoint bytes diverged from the reference loop's", seed)
				}
			}
		})
	}
}

// quietGen misses on n consecutive lines of its region, then computes
// for 2^40 cycles before each further op: a tile that has gone idle.
type quietGen struct {
	base mem.Addr
	n, i int
}

func (g *quietGen) Name() string { return "quiet" }
func (g *quietGen) Next(op *workload.Op) {
	gap := 1 << 40
	if g.i < g.n {
		gap = 1
	}
	*op = workload.Op{Addr: g.base + mem.Addr(g.i*mem.LineSize), Gap: gap, Insts: 1}
	g.i++
}

// tileVisits returns how many tile dispatches the event kernel has run.
func tileVisits(t *testing.T, sys *System) uint64 {
	t.Helper()
	for _, ec := range sys.Snapshot().EventClasses {
		if ec.Class == "tile" {
			return ec.Visited
		}
	}
	t.Fatal("no tile event class")
	return 0
}

// TestHeartbeatsLeaveIdleTilesAsleep: on a MeshScaled machine every tile
// but tile 0 receives its heartbeat through the gossip-lag queue each
// epoch. A delivery wakes a tile only when the heartbeat leaves it work
// due, so once every tile has gone idle — no queued miss, no response in
// flight, its core computing — epochs of deliveries dispatch no tile
// (one per lagged tile per epoch when every delivery woke its tile).
func TestHeartbeatsLeaveIdleTilesAsleep(t *testing.T) {
	cfg := config.MeshScaled(4, 4)
	ep := cfg.PABST.EpochCycles
	reg := qos.NewRegistry()
	c := reg.MustAdd("quiet", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NumTiles(); i++ {
		if err := sys.Attach(i, c.ID, &quietGen{base: tileRegion(i).Base, n: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * ep)
	for i, tl := range sys.tiles {
		if tl.core.OpsRetired() < 8 || tl.queued > 0 || tl.inbox.Len() > 0 {
			t.Fatalf("tile %d has not gone idle: %d ops retired, %d misses queued, %d responses in flight",
				i, tl.core.OpsRetired(), tl.queued, tl.inbox.Len())
		}
	}

	// A governor's watchdog deadline is its latest heartbeat plus a
	// constant, so it moves by one epoch per delivery.
	beats := func() []uint64 {
		at := make([]uint64, len(sys.tiles))
		for i, tl := range sys.tiles {
			at[i] = tl.src.(regulate.Watchdog).WatchdogNextAt()
		}
		return at
	}
	const epochs = 8
	before, beat := tileVisits(t, sys), beats()
	sys.Run(epochs * ep)
	for i, at := range beats() {
		if i > 0 && gossipDepth(i, cfg.PABST.GossipFanout) == 0 {
			t.Fatalf("tile %d's heartbeat is not lagged", i)
		}
		if at-beat[i] != epochs*ep {
			t.Fatalf("tile %d received heartbeats %d cycles apart over %d epochs, want %d", i, at-beat[i], epochs, epochs*ep)
		}
	}
	if got := tileVisits(t, sys) - before; got != 0 {
		t.Errorf("%d tile dispatches over %d epochs of heartbeats to idle tiles, want 0", got, epochs)
	}
	if late := sys.Snapshot().LateWakes; late != 0 {
		t.Errorf("LateWakes = %d, want 0", late)
	}
}
