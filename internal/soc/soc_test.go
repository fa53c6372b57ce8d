package soc

import (
	"math"
	"testing"

	"pabst/internal/config"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// testCfg returns the 32-core system with a short epoch so governor
// convergence fits in test-sized runs.
func testCfg() config.System {
	cfg := config.Default32()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	return cfg
}

func testCfg8() config.System {
	cfg := config.Scaled8()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	return cfg
}

func tileRegion(tile int) workload.Region {
	return workload.Region{Base: mem.Addr(uint64(tile+1) << 32), Size: 64 << 20}
}

// twoClassStreams builds nHi+nLo stream tiles in two classes.
func twoClassStreams(t *testing.T, cfg config.System, mode qospolicy.Pair, wHi, wLo uint64, nHi, nLo int) (*System, *qos.Class, *qos.Class) {
	t.Helper()
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", wHi, cfg.L3Ways/2)
	lo := reg.MustAdd("lo", wLo, cfg.L3Ways/2)
	sys, err := New(cfg, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nHi; i++ {
		if err := sys.Attach(i, hi.ID, workload.NewStream("hi-stream", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nLo; i++ {
		tile := nHi + i
		if err := sys.Attach(tile, lo.ID, workload.NewStream("lo-stream", tileRegion(tile), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, hi, lo
}

func TestSingleStreamMovesData(t *testing.T) {
	cfg := testCfg()
	reg := qos.NewRegistry()
	c := reg.MustAdd("solo", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(50000)
	m := sys.Metrics()
	if m.BytesByClass[c.ID] == 0 {
		t.Fatal("stream moved no data")
	}
	// One stream tile is MSHR-limited: 16 outstanding over a ~100-150
	// cycle round trip => several B/cycle.
	if bpc := m.BytesPerCycle(c.ID); bpc < 2 {
		t.Fatalf("single stream bandwidth %.2f B/cyc, unreasonably low", bpc)
	}
	if classOf(sys, c.ID).IPC == 0 {
		t.Fatal("stream core retired nothing")
	}
}

func TestFloodSaturatesSystem(t *testing.T) {
	cfg := testCfg()
	sys, hi, lo := twoClassStreams(t, cfg, qospolicy.None, 1, 1, 16, 16)
	sys.Warmup(50000)
	sys.Run(100000)
	m := sys.Metrics()
	peak := cfg.PeakBytesPerCycle()
	total := m.BytesPerCycle(hi.ID) + m.BytesPerCycle(lo.ID)
	if total < 0.75*peak {
		t.Fatalf("32 streamers reach %.1f B/cyc of %.1f peak", total, peak)
	}
	if !sys.Snapshot().Sat {
		t.Fatal("flooded system does not raise SAT")
	}
}

func TestNoQoSSplitsEvenly(t *testing.T) {
	sys, hi, lo := twoClassStreams(t, testCfg(), qospolicy.None, 3, 1, 16, 16)
	sys.Warmup(50000)
	sys.Run(100000)
	m := sys.Metrics()
	// Without QoS the 3:1 weights are ignored; identical workloads split
	// roughly evenly.
	if sh := m.ShareOf(hi.ID); math.Abs(sh-0.5) > 0.1 {
		t.Fatalf("no-QoS hi share = %.2f, want ~0.5 (lo %.2f)", sh, m.ShareOf(lo.ID))
	}
}

func TestPABSTProportionalAllocation(t *testing.T) {
	// The Figure 5 contract: 7:3 shares between two 16-core stream
	// classes yield a 70/30 bandwidth split.
	sys, hi, lo := twoClassStreams(t, testCfg(), qospolicy.PABST, 7, 3, 16, 16)
	sys.Warmup(150000) // let the governors converge
	sys.Run(150000)
	m := sys.Metrics()
	shHi, shLo := m.ShareOf(hi.ID), m.ShareOf(lo.ID)
	if math.Abs(shHi-0.7) > 0.07 || math.Abs(shLo-0.3) > 0.07 {
		t.Fatalf("PABST shares %.2f/%.2f, want 0.70/0.30", shHi, shLo)
	}
	// And the system stays near peak (work conservation under load).
	cfgv := sys.Config()
	peak := cfgv.PeakBytesPerCycle()
	total := m.BytesPerCycle(hi.ID) + m.BytesPerCycle(lo.ID)
	if total < 0.6*peak {
		t.Fatalf("PABST throughput %.1f of %.1f peak: over-throttled", total, peak)
	}
}

func TestWorkConservationSoloSmallShare(t *testing.T) {
	// A class with a tiny share but no competition must still be able to
	// consume (nearly) all bandwidth.
	cfg := testCfg()
	reg := qos.NewRegistry()
	small := reg.MustAdd("small", 1, cfg.L3Ways/2)
	reg.MustAdd("absent", 31, cfg.L3Ways/2) // huge share, never attached
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sys.Attach(i, small.ID, workload.NewStream("s", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(150000)
	sys.Run(100000)
	m := sys.Metrics()
	peak := cfg.PeakBytesPerCycle()
	if bpc := m.BytesPerCycle(small.ID); bpc < 0.6*peak {
		t.Fatalf("solo small-share class reaches %.1f of %.1f peak: not work conserving", bpc, peak)
	}
}

func TestMSHRBound(t *testing.T) {
	cfg := testCfg()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		sys.Run(1)
		if n := sys.tiles[0].mshr.len(); n > cfg.MaxMSHRs {
			t.Fatalf("MSHR occupancy %d exceeds %d", n, cfg.MaxMSHRs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Metrics {
		sys, _, _ := twoClassStreams(t, testCfg(), qospolicy.PABST, 7, 3, 8, 8)
		sys.Run(60000)
		return sys.Metrics()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaserIsLatencySensitive(t *testing.T) {
	// A chaser co-run with a flood gets little bandwidth without QoS;
	// its achievable bandwidth must track latency.
	cfg := testCfg()
	reg := qos.NewRegistry()
	ch := reg.MustAdd("chaser", 3, cfg.L3Ways/2)
	st := reg.MustAdd("stream", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sys.Attach(i, ch.ID, workload.NewChaser("c", tileRegion(i), 4, uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 16; i < 32; i++ {
		if err := sys.Attach(i, st.ID, workload.NewStream("s", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(50000)
	sys.Run(100000)
	m := sys.Metrics()
	// Unregulated, the stream flood dominates: chaser far below its
	// 75% entitlement.
	if sh := m.ShareOf(ch.ID); sh > 0.55 {
		t.Fatalf("unregulated chaser share %.2f — flood should crowd it out", sh)
	}
}

func TestScaled8System(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sys.Attach(i, c.ID, workload.NewStream("s", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(50000)
	sys.Run(50000)
	m := sys.Metrics()
	peak := cfg.PeakBytesPerCycle()
	if bpc := m.BytesPerCycle(c.ID); bpc < 0.6*peak {
		t.Fatalf("8-core system reaches %.1f of %.1f peak", bpc, peak)
	}
}

func TestAttachValidation(t *testing.T) {
	cfg := testCfg()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStream("s", tileRegion(0), 128, false)
	if err := sys.Attach(-1, c.ID, gen); err == nil {
		t.Fatal("negative tile accepted")
	}
	if err := sys.Attach(0, c.ID, gen); err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, gen); err == nil {
		t.Fatal("double attach accepted")
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(1, c.ID, gen); err == nil {
		t.Fatal("attach after finalize accepted")
	}
	if err := sys.Finalize(); err == nil {
		t.Fatal("double finalize accepted")
	}
}

func TestPartitionOverflowRejected(t *testing.T) {
	cfg := testCfg()
	reg := qos.NewRegistry()
	reg.MustAdd("a", 1, cfg.L3Ways)
	reg.MustAdd("b", 1, 1)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err == nil {
		t.Fatal("oversubscribed L3 partition accepted")
	}
}

func TestL3ResidentWorkloadStopsUsingDRAM(t *testing.T) {
	// A small-footprint streamer should, after warmup, hit in the L3 and
	// generate almost no memory traffic — the Figure 8 precondition.
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("resident", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint well under the 8-slice x 512 KiB L3.
	region := workload.Region{Base: 1 << 33, Size: 1 << 20}
	if err := sys.Attach(0, c.ID, workload.NewStream("l3res", region, 128, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(300000)
	sys.Run(100000)
	m := sys.Metrics()
	if bpc := m.BytesPerCycle(c.ID); bpc > 0.5 {
		t.Fatalf("L3-resident stream still moves %.2f B/cyc from DRAM", bpc)
	}
	if classOf(sys, c.ID).IPC < 0.5 {
		t.Fatalf("L3-resident stream IPC %.2f, should run fast from cache", classOf(sys, c.ID).IPC)
	}
}
