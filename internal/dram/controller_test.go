package dram

import (
	"testing"

	"pabst/internal/mem"
)

func testCfg() Config {
	return Config{
		Timing:      DDR4(),
		Policy:      ClosedPage,
		Banks:       16,
		RowLines:    128,
		AddrShift:   2,
		FrontReadQ:  32,
		FrontWriteQ: 32,
	}
}

type capture struct {
	pkts []*mem.Packet
	done []uint64
}

func (c *capture) respond(p *mem.Packet, doneAt uint64) {
	c.pkts = append(c.pkts, p)
	c.done = append(c.done, doneAt)
}

func newTestMC(t *testing.T, cfg Config) (*Controller, *capture) {
	t.Helper()
	cap := &capture{}
	mc, err := NewController(0, cfg, cap.respond)
	if err != nil {
		t.Fatal(err)
	}
	return mc, cap
}

// lineOnBank returns the (seq+1)-th line address that maps to the given
// bank under the controller's XOR-folded bank hash. Distinct seqs give
// distinct rows.
func lineOnBank(cfg Config, bank, seq int) mem.Addr {
	b := uint(4) // log2(16 banks) in testCfg
	rowStride := uint64(1) << (cfg.AddrShift + b + 7)
	matches := 0
	for lid := uint64(0); ; lid += rowStride {
		x := lid >> cfg.AddrShift
		got := int((x ^ x>>b ^ x>>(2*b) ^ x>>(3*b)) & uint64(cfg.Banks-1))
		if got == bank {
			if matches == seq {
				return mem.Addr(lid << mem.LineShift)
			}
			matches++
		}
	}
}

func run(mc *Controller, from, to uint64) {
	for now := from; now < to; now++ {
		mc.Tick(now)
	}
}

func enqRead(t *testing.T, mc *Controller, addr mem.Addr, class mem.ClassID, now uint64) *mem.Packet {
	t.Helper()
	if !mc.TryReserveRead() {
		t.Fatal("reservation failed")
	}
	p := &mem.Packet{Addr: addr, Kind: mem.Read, Class: class}
	mc.ArriveRead(p, now)
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowLines = 5 },
		func(c *Config) { c.FrontReadQ = 0 },
		func(c *Config) { c.FrontWriteQ = 1 }, // watermarks 0 and 0
		func(c *Config) { c.FrontWriteQ = 0 },
		func(c *Config) { c.Timing.TBurst = 0 },
	}
	for i, mut := range bad {
		cfg := testCfg()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestDerivedQueueTiming pins the values that follow from the config
// rather than being set in it: the write drain watermarks are ¾ and ¼ of
// the write queue, and the scheduler runs two bursts ahead of the bus.
func TestDerivedQueueTiming(t *testing.T) {
	for _, c := range []struct{ capacity, high, low int }{{32, 24, 8}, {16, 12, 4}, {2, 1, 0}} {
		cfg := testCfg()
		cfg.FrontWriteQ = c.capacity
		if err := cfg.Validate(); err != nil {
			t.Fatalf("write queue %d rejected: %v", c.capacity, err)
		}
		if cfg.writeHighWater() != c.high || cfg.writeLowWater() != c.low {
			t.Fatalf("write queue %d: watermarks %d/%d, want %d/%d",
				c.capacity, cfg.writeHighWater(), cfg.writeLowWater(), c.high, c.low)
		}
	}
	mc, _ := newTestMC(t, testCfg())
	tm := testCfg().Timing
	if want := uint64(tm.TRCD + tm.TCL + 2*tm.TBurst); mc.window != want {
		t.Fatalf("issue window %d cycles, want ACT+CAS+2 bursts = %d", mc.window, want)
	}
}

func TestReadRoundTrip(t *testing.T) {
	mc, cap := newTestMC(t, testCfg())
	enqRead(t, mc, lineOnBank(testCfg(), 0, 0), 1, 0)
	run(mc, 0, 200)
	if len(cap.pkts) != 1 {
		t.Fatalf("%d responses, want 1", len(cap.pkts))
	}
	tm := testCfg().Timing
	wantMin := uint64(tm.TRCD + tm.TCL + tm.TBurst)
	if cap.done[0] < wantMin {
		t.Fatalf("read done at %d, faster than ACT+CAS+burst=%d", cap.done[0], wantMin)
	}
	if mc.Stats.ReadsServed != 1 || mc.Stats.BytesByClass[1] != mem.LineSize {
		t.Fatalf("stats %+v", mc.Stats)
	}
}

func TestReservationBound(t *testing.T) {
	cfg := testCfg()
	cfg.FrontReadQ = 4
	mc, _ := newTestMC(t, cfg)
	for i := 0; i < 4; i++ {
		if !mc.TryReserveRead() {
			t.Fatalf("reservation %d failed", i)
		}
	}
	if mc.TryReserveRead() {
		t.Fatal("reservation beyond capacity granted")
	}
}

func TestArriveWithoutReservationPanics(t *testing.T) {
	mc, _ := newTestMC(t, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("ArriveRead without reservation did not panic")
		}
	}()
	mc.ArriveRead(&mem.Packet{}, 0)
}

func TestFCFSOrder(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	// Three reads to distinct banks, arriving in order.
	a := enqRead(t, mc, lineOnBank(cfg, 1, 0), 0, 0)
	b := enqRead(t, mc, lineOnBank(cfg, 2, 0), 0, 1)
	c := enqRead(t, mc, lineOnBank(cfg, 3, 0), 0, 2)
	run(mc, 3, 500)
	if len(cap.pkts) != 3 {
		t.Fatalf("%d responses", len(cap.pkts))
	}
	if cap.pkts[0] != a || cap.pkts[1] != b || cap.pkts[2] != c {
		t.Fatal("FCFS order violated across banks")
	}
}

type fixedArbiter struct {
	deadlines map[*mem.Packet]uint64
	picked    []*mem.Packet
}

func (f *fixedArbiter) OnAccept(p *mem.Packet, now uint64) { p.Deadline = f.deadlines[p] }
func (f *fixedArbiter) OnPick(p *mem.Packet, now uint64)   { f.picked = append(f.picked, p) }

func TestEDFOrder(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	arb := &fixedArbiter{deadlines: map[*mem.Packet]uint64{}}
	mc.SetScheduler(SchedEDF, arb)

	p1 := &mem.Packet{Addr: lineOnBank(cfg, 1, 0), Kind: mem.Read, Class: 0}
	p2 := &mem.Packet{Addr: lineOnBank(cfg, 2, 0), Kind: mem.Read, Class: 1}
	p3 := &mem.Packet{Addr: lineOnBank(cfg, 3, 0), Kind: mem.Read, Class: 2}
	arb.deadlines[p1] = 300
	arb.deadlines[p2] = 100
	arb.deadlines[p3] = 200
	for _, p := range []*mem.Packet{p1, p2, p3} {
		if !mc.TryReserveRead() {
			t.Fatal("reserve")
		}
		mc.ArriveRead(p, 0)
	}
	run(mc, 0, 500)
	if len(cap.pkts) != 3 {
		t.Fatalf("%d responses", len(cap.pkts))
	}
	if cap.pkts[0] != p2 || cap.pkts[1] != p3 || cap.pkts[2] != p1 {
		t.Fatal("EDF did not serve earliest deadline first")
	}
	if len(arb.picked) != 3 || arb.picked[0] != p2 {
		t.Fatal("OnPick not called in service order")
	}
}

func TestEDFRequiresArbiter(t *testing.T) {
	mc, _ := newTestMC(t, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("EDF without arbiter accepted")
		}
	}()
	mc.SetScheduler(SchedEDF, nil)
}

// TestSetSchedulerRefusesQueuedReads: the pick order is chosen at
// construction; a front end holding reads indexed them under the old
// order, so switching then panics instead of re-sorting them.
func TestSetSchedulerRefusesQueuedReads(t *testing.T) {
	cfg := testCfg()
	mc, _ := newTestMC(t, cfg)
	mc.SetScheduler(SchedFCFS, nil) // empty: allowed, and a no-op
	enqRead(t, mc, lineOnBank(cfg, 1, 0), 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetScheduler switched the order with a read queued")
		}
	}()
	mc.SetScheduler(SchedEDF, &fixedArbiter{deadlines: map[*mem.Packet]uint64{}})
}

func TestSameBankSerializes(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	enqRead(t, mc, lineOnBank(cfg, 5, 0), 0, 0)
	enqRead(t, mc, lineOnBank(cfg, 5, 1), 0, 0)
	run(mc, 0, 1000)
	if len(cap.done) != 2 {
		t.Fatalf("%d responses", len(cap.done))
	}
	gap := cap.done[1] - cap.done[0]
	tm := cfg.Timing
	// Closed page: second ACT cannot begin until first access's
	// precharge completes, so the gap must be at least TRP.
	if gap < uint64(tm.TRP) {
		t.Fatalf("same-bank reads separated by only %d cycles", gap)
	}
}

func TestBusSerializesAcrossBanks(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	for i := 0; i < 8; i++ {
		enqRead(t, mc, lineOnBank(cfg, i, 0), 0, 0)
	}
	run(mc, 0, 2000)
	if len(cap.done) != 8 {
		t.Fatalf("%d responses", len(cap.done))
	}
	for i := 1; i < 8; i++ {
		if cap.done[i]-cap.done[i-1] < uint64(cfg.Timing.TBurst) {
			t.Fatalf("bursts %d and %d overlap on the data bus: done %v", i-1, i, cap.done)
		}
	}
}

func TestPeakBandwidthAchievable(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	// Keep all banks fed for a while, spreading arrivals round-robin so
	// the queue always holds work for many banks.
	seq := 0
	cycles := uint64(20000)
	for now := uint64(0); now < cycles; now++ {
		for mc.TryReserveRead() {
			b := seq % cfg.Banks
			p := &mem.Packet{Addr: lineOnBank(cfg, b, seq/cfg.Banks), Kind: mem.Read}
			seq++
			mc.ArriveRead(p, now)
		}
		mc.Tick(now)
	}
	got := float64(len(cap.done)*mem.LineSize) / float64(cycles)
	peak := mc.PeakBytesPerCycle()
	if got < 0.85*peak {
		t.Fatalf("achieved %.2f B/cyc, want >= 85%% of peak %.2f", got, peak)
	}
}

func TestSaturationMonitor(t *testing.T) {
	cfg := testCfg()
	cfg.FrontReadQ = 8
	mc, _ := newTestMC(t, cfg)
	// Idle epoch: not saturated.
	run(mc, 0, 100)
	if mc.EpochSaturated() {
		t.Fatal("idle controller reported saturation")
	}
	// Keep the queue full for an epoch.
	seq := 0
	for now := uint64(100); now < 200; now++ {
		for mc.TryReserveRead() {
			p := &mem.Packet{Addr: lineOnBank(cfg, seq%cfg.Banks, seq/cfg.Banks), Kind: mem.Read}
			seq++
			mc.ArriveRead(p, now)
		}
		mc.Tick(now)
	}
	if !mc.EpochSaturated() {
		t.Fatal("flooded controller did not report saturation")
	}
	// The measurement resets: next idle epoch is clean.
	// Drain remaining queue first.
	run(mc, 200, 3000)
	mc.EpochSaturated()
	run(mc, 3000, 3100)
	if mc.EpochSaturated() {
		t.Fatal("saturation did not reset after drain")
	}
}

func TestWritesDrain(t *testing.T) {
	cfg := testCfg()
	mc, _ := newTestMC(t, cfg)
	for i := 0; i < 10; i++ {
		if !mc.TryReserveWrite() {
			t.Fatal("write reserve failed")
		}
		mc.ArriveWrite(&mem.Packet{Addr: lineOnBank(cfg, i, 0), Kind: mem.Writeback, Class: 2}, 0)
	}
	run(mc, 0, 3000)
	if mc.Stats.WritesServed != 10 {
		t.Fatalf("WritesServed = %d, want 10", mc.Stats.WritesServed)
	}
	if mc.Stats.BytesByClass[2] != 10*mem.LineSize {
		t.Fatalf("write bytes = %d", mc.Stats.BytesByClass[2])
	}
}

func TestReadsPreferredUntilHighWater(t *testing.T) {
	cfg := testCfg()
	cfg.FrontWriteQ = 16 // watermarks 12 and 4
	mc, cap := newTestMC(t, cfg)
	// A few writes below high water plus a read: the read goes first.
	for i := 0; i < 4; i++ {
		mc.TryReserveWrite()
		mc.ArriveWrite(&mem.Packet{Addr: lineOnBank(cfg, i, 0), Kind: mem.Writeback}, 0)
	}
	r := enqRead(t, mc, lineOnBank(cfg, 9, 0), 0, 0)
	// The read must be served first even though the writes arrived
	// earlier; once the read queue empties, the controller drains the
	// writes opportunistically.
	run(mc, 0, 3000)
	if len(cap.pkts) != 1 || cap.pkts[0] != r {
		t.Fatal("read was not served while writes were below high water")
	}
	if mc.Stats.WritesServed != 4 {
		t.Fatalf("WritesServed = %d, want opportunistic drain of 4", mc.Stats.WritesServed)
	}
}

func TestOpenPageRowHitsFaster(t *testing.T) {
	cfgClosed := testCfg()
	cfgOpen := testCfg()
	cfgOpen.Policy = OpenPage

	serve := func(cfg Config) (uint64, uint64) {
		mc, cap := newTestMC(t, cfg)
		// 16 sequential lines in the same row, same bank.
		base := lineOnBank(cfg, 0, 0)
		for i := 0; i < 16; i++ {
			enqRead(t, mc, base+mem.Addr(i*mem.LineSize), 0, 0)
		}
		run(mc, 0, 20000)
		if len(cap.done) != 16 {
			t.Fatalf("%d responses", len(cap.done))
		}
		return cap.done[15], mc.Stats.RowHits
	}
	closedDone, closedHits := serve(cfgClosed)
	openDone, openHits := serve(cfgOpen)
	if closedHits != 0 {
		t.Fatalf("closed page recorded %d row hits", closedHits)
	}
	if openHits < 10 {
		t.Fatalf("open page recorded only %d row hits", openHits)
	}
	if openDone >= closedDone {
		t.Fatalf("open page (%d) not faster than closed (%d) on sequential rows", openDone, closedDone)
	}
}

func TestConservationAllReadsComplete(t *testing.T) {
	cfg := testCfg()
	mc, cap := newTestMC(t, cfg)
	accepted := 0
	seq := 0
	for now := uint64(0); now < 5000; now++ {
		if now < 2000 && mc.TryReserveRead() {
			p := &mem.Packet{Addr: lineOnBank(cfg, seq%cfg.Banks, seq), Kind: mem.Read}
			seq++
			accepted++
			mc.ArriveRead(p, now)
		}
		mc.Tick(now)
	}
	run(mc, 5000, 20000)
	if len(cap.pkts) != accepted {
		t.Fatalf("accepted %d reads, %d responses", accepted, len(cap.pkts))
	}
	if mc.QueuedReads() != 0 {
		t.Fatalf("%d reads stranded in queue", mc.QueuedReads())
	}
}

func TestTimingScale(t *testing.T) {
	tm := DDR4().Scale(4)
	base := DDR4()
	if tm.TBurst != 4*base.TBurst || tm.TRCD != 4*base.TRCD {
		t.Fatalf("Scale(4) = %+v", tm)
	}
}

func TestPendingAndBusyCycles(t *testing.T) {
	cfg := testCfg()
	mc, _ := newTestMC(t, cfg)
	enqRead(t, mc, lineOnBank(cfg, 0, 0), 0, 0)
	run(mc, 0, 300)
	if mc.Stats.PendingCycles == 0 {
		t.Fatal("no pending cycles recorded")
	}
	if mc.Stats.BusBusyCycles != uint64(cfg.Timing.TBurst) {
		t.Fatalf("BusBusyCycles = %d, want %d", mc.Stats.BusBusyCycles, cfg.Timing.TBurst)
	}
}
