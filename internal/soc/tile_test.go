package soc

import (
	"bytes"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/cpu"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// oneOpGen replays a fixed address list, then repeats the last address
// (which will hit in L2) forever.
type oneOpGen struct {
	addrs []mem.Addr
	write []bool
	i     int
}

func (g *oneOpGen) Name() string { return "oneop" }
func (g *oneOpGen) Next(op *workload.Op) {
	i := g.i
	if i >= len(g.addrs) {
		i = len(g.addrs) - 1
	} else {
		g.i++
	}
	*op = workload.Op{Addr: g.addrs[i], Write: g.write[i], Gap: 1, Insts: 1}
}

func buildOneTile(t *testing.T, gen workload.Generator, mode qospolicy.Pair) *System {
	t.Helper()
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, gen); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTileMSHRCoalescing(t *testing.T) {
	// Many accesses to the same line while its miss is outstanding must
	// produce exactly one memory read.
	addrs := make([]mem.Addr, 16)
	writes := make([]bool, 16)
	for i := range addrs {
		addrs[i] = 0x100040 // same line
	}
	sys := buildOneTile(t, &oneOpGen{addrs: addrs, write: writes}, qospolicy.None)
	sys.Run(2000)
	reads, _, _ := mcTotals(sys)
	if reads != 1 {
		t.Fatalf("coalescing broken: %d memory reads for one line", reads)
	}
	if ipc := classOf(sys, 0).IPC; ipc == 0 {
		t.Fatal("coalesced ops never completed")
	}
}

func TestTileL2HitGeneratesNoTraffic(t *testing.T) {
	// One miss to warm the line, then hits forever.
	sys := buildOneTile(t, &oneOpGen{addrs: []mem.Addr{0x40}, write: []bool{false}}, qospolicy.None)
	sys.Run(5000)
	reads, writes, _ := mcTotals(sys)
	if reads != 1 || writes != 0 {
		t.Fatalf("L2-hit stream produced %d reads, %d writes", reads, writes)
	}
	core := sys.tiles[0].Core()
	if core.OpsRetired() < 1000 {
		t.Fatalf("hit stream retired only %d ops", core.OpsRetired())
	}
}

func TestL3HitFlagReachesPacer(t *testing.T) {
	// Line resident in L3 but evicted from L2: the refill is an L2 miss
	// that hits in L3, so the response must carry L3Hit for the pacer
	// refund. We detect the flag via the slice hit counter and by the
	// absence of memory reads.
	const line = mem.Addr(0x7000040)
	// First touch the line (DRAM read, fills L2+L3), then thrash L2 with
	// other lines mapping to the same set, then touch it again.
	cfg := testCfg8()
	l2sets := cfg.L2Bytes / (cfg.L2Ways * mem.LineSize)
	var addrs []mem.Addr
	var writes []bool
	addrs = append(addrs, line)
	writes = append(writes, false)
	for i := 1; i <= cfg.L2Ways+2; i++ {
		addrs = append(addrs, line+mem.Addr(i*l2sets*mem.LineSize)) // same L2 set
		writes = append(writes, false)
	}
	addrs = append(addrs, line) // should be L3 hit now
	writes = append(writes, false)

	sys := buildOneTile(t, &oneOpGen{addrs: addrs, write: writes}, qospolicy.None)
	sys.Run(5000)
	var l3hits uint64
	for _, sl := range sys.slices {
		l3hits += sl.Hits
	}
	if l3hits == 0 {
		t.Fatal("refill after L2 eviction did not hit in L3")
	}
}

func TestWritebackChainL2ToL3ToDRAM(t *testing.T) {
	// Dirty a large working set: L2 evictions write back into L3; when
	// the L3 evicts those dirty lines, DRAM writes must appear, charged
	// to the class.
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("w", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	// Write-stream over a footprint far larger than the whole L3.
	region := workload.Region{Base: 1 << 33, Size: 32 << 20}
	if err := sys.Attach(0, c.ID, workload.NewStream("w", region, 128, true)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(600_000)
	reads, writes, _ := mcTotals(sys)
	if writes == 0 {
		t.Fatal("write stream produced no DRAM writebacks")
	}
	// Every line is dirtied once and eventually written back once:
	// writes should approach reads.
	if float64(writes) < 0.5*float64(reads) {
		t.Fatalf("writes %d vs reads %d: writeback chain leaking", writes, reads)
	}
	m := sys.Metrics()
	if m.BytesByClass[c.ID] == 0 {
		t.Fatal("writeback bytes not charged to the class")
	}
}

func TestIdleTilesStayIdle(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	// Attach only tile 3.
	if err := sys.Attach(3, c.ID, workload.NewStream("s", tileRegion(3), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(20_000)
	for i, tl := range sys.tiles {
		if i == 3 {
			if tl == nil || tl.Core().OpsRetired() == 0 {
				t.Fatal("attached tile made no progress")
			}
			continue
		}
		if tl != nil {
			t.Fatalf("tile %d should be idle", i)
		}
	}
}

func TestTileBlockedWhenMSHRsFull(t *testing.T) {
	// A pointer-chaser with more independent chains than MSHR entries
	// saturates the miss table; the core must observe AccessBlocked and
	// keep outstanding <= MaxMSHRs at all times (checked via the mshr
	// map size during execution). The strict model — a miss refused for
	// want of an MSHR allocates nothing — is pinned as a cycle-vs-event
	// cross-kernel fingerprint at saturating depth: wake-on-completion (a
	// blocked core sleeps until the response that frees an entry) must
	// never reorder miss completion.
	const cycles = 3000
	t.Run("strict", func(t *testing.T) {
		var classID mem.ClassID
		build := func(kernel string) (*System, int) {
			cfg := testCfg8()
			cfg.Kernel = kernel
			reg := qos.NewRegistry()
			c := reg.MustAdd("c", 1, cfg.L3Ways)
			classID = c.ID
			sys, err := New(cfg, reg, qospolicy.None)
			if err != nil {
				t.Fatal(err)
			}
			chains := 2 * cfg.MaxMSHRs // saturating depth
			if err := sys.Attach(0, c.ID, workload.NewChaser("ch", tileRegion(0), chains, 5)); err != nil {
				t.Fatal(err)
			}
			if err := sys.Finalize(); err != nil {
				t.Fatal(err)
			}
			return sys, cfg.MaxMSHRs
		}

		// Cycle kernel, stepped one cycle at a time to watch the occupancy
		// invariant mid-flight.
		cyc, maxMSHRs := build("cycle")
		for i := 0; i < cycles; i++ {
			cyc.Run(1)
			if n := cyc.tiles[0].mshr.len(); n > maxMSHRs {
				t.Fatalf("MSHR map %d > limit %d", n, maxMSHRs)
			}
		}
		if cyc.tiles[0].core.Outstanding() == 0 {
			t.Fatal("no outstanding misses generated")
		}
		want := fingerprint(cyc, classID)

		ev, _ := build("event")
		ev.Run(cycles)
		if got := fingerprint(ev, classID); got != want {
			t.Errorf("event kernel diverged under MSHR saturation:\n--- cycle\n%s--- event\n%s", want, got)
		}
		snap := ev.Snapshot()
		if snap.LateWakes != 0 {
			t.Errorf("LateWakes = %d, want 0 (wake-on-completion must stay forward-only)", snap.LateWakes)
		}
		// A blocked core sleeps, so the tile class is dispatched on strictly
		// fewer cycles than it would be polled.
		for _, ec := range snap.EventClasses {
			if ec.Class == "tile" && ec.Visited >= cycles {
				t.Errorf("tile class visited %d of %d cycles — blocked core never slept", ec.Visited, cycles)
			}
		}
	})
}

func TestL1HitFasterThanL2Hit(t *testing.T) {
	cfg := testCfg8()
	// Dependent chains expose the hit latency of whichever level the
	// working set lives in (independent ops would pipeline and hide it).
	small := buildOneTile(t, &loopGen{addrs: []mem.Addr{0x40, 0x80}}, qospolicy.None)
	small.Run(50_000)
	ipcL1 := classOf(small, 0).IPC

	// Working set beyond L1 but inside L2: bounded by L2 hit latency.
	l1Lines := cfg.L1Bytes / mem.LineSize
	var addrs []mem.Addr
	for i := 0; i < 2*l1Lines; i++ {
		addrs = append(addrs, mem.Addr(i*mem.LineSize))
	}
	big := buildOneTile(t, &loopGen{addrs: addrs}, qospolicy.None)
	big.Run(400_000)
	big.ResetStats()
	big.Run(100_000)
	ipcL2 := classOf(big, 0).IPC

	if ipcL2 == 0 {
		t.Fatal("L2-resident loop made no progress")
	}
	// L1 hits (4 cycles) vs L2 hits (12 cycles): expect roughly a 2-3x
	// IPC gap on a strict chain.
	if ipcL1 < 1.5*ipcL2 {
		t.Fatalf("L1-resident IPC %.3f should clearly beat L2-resident IPC %.3f", ipcL1, ipcL2)
	}
}

// loopGen cycles through a fixed address list as one dependent chain.
type loopGen struct {
	addrs []mem.Addr
	i     int
}

func (g *loopGen) Name() string { return "loop" }
func (g *loopGen) Next(op *workload.Op) {
	*op = workload.Op{Addr: g.addrs[g.i%len(g.addrs)], DependsOn: 1, Gap: 0, Insts: 1}
	g.i++
}

var _ cpu.MemPort = (*Tile)(nil)

// TestAccessDropsBitsAboveTheAddressWidth: a tile decodes mem.AddrBits of
// an address, as the machine's address decoder does, so an op stream
// with bit 60, or the first bit above the width, set in every address
// runs exactly as the same stream without it — the same misses,
// evictions and writebacks, to the same lines. (The core's
// window keeps the ops as generated, so only the caches' images are
// compared, not the whole machine's.)
func TestAccessDropsBitsAboveTheAddressWidth(t *testing.T) {
	cfg := testCfg8()
	l2sets := cfg.L2Bytes / (cfg.L2Ways * mem.LineSize)
	var low []mem.Addr
	var writes []bool
	for i := range 4 * cfg.L2Ways { // enough lines of one L2 set to evict dirty ones
		low = append(low, tileRegion(0).Base+mem.Addr(i*l2sets*mem.LineSize+i%mem.LineSize))
		writes = append(writes, i%3 == 0)
	}
	var dirtyEvictions uint64
	run := func(addrs []mem.Addr) (string, []byte) {
		reg := qos.NewRegistry()
		c := reg.MustAdd("c", 1, cfg.L3Ways)
		sys, err := New(cfg, reg, qospolicy.PABST)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Attach(0, c.ID, &oneOpGen{addrs: addrs, write: writes}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Finalize(); err != nil {
			t.Fatal(err)
		}
		sys.Run(20_000)
		dirtyEvictions = sys.tiles[0].l2.DirtyEvictions
		img, err := ckpt.Encode(ckpt.Header{}, ckpt.WalkFunc(func(c *ckpt.Codec) {
			sys.tiles[0].l1.Ckpt(c)
			sys.tiles[0].l2.Ckpt(c)
			for _, sl := range sys.slices {
				sl.cache.Ckpt(c)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(sys, c.ID), img
	}
	want, wantImg := run(low)
	for _, bit := range []uint{60, mem.AddrBits} {
		high := make([]mem.Addr, len(low))
		for i, a := range low {
			high[i] = a | 1<<bit
		}
		got, img := run(high)
		if got != want {
			t.Errorf("bit %d set:\n%s\nwithout:\n%s", bit, got, want)
		}
		if !bytes.Equal(img, wantImg) {
			t.Errorf("bit %d set: the caches hold other lines than without it", bit)
		}
	}
	if dirtyEvictions == 0 {
		t.Fatal("the stream evicted no dirty line from the L2")
	}
}
