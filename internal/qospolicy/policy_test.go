package qospolicy

import (
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// testRegistry builds a 3:1 two-class registry with the given thread
// counts attached.
func testRegistry(hiThreads, loThreads int) (*qos.Registry, mem.ClassID, mem.ClassID) {
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", 3, 8)
	lo := reg.MustAdd("lo", 1, 8)
	for i := 0; i < hiThreads; i++ {
		reg.AttachCPU(hi.ID)
	}
	for i := 0; i < loThreads; i++ {
		reg.AttachCPU(lo.ID)
	}
	return reg, hi.ID, lo.ID
}

func testParams() pabst.Params {
	return pabst.Params{EpochCycles: 2000, BurstCredit: 4, Slack: 64}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range SourceNames() {
		if !ValidSource(name) {
			t.Errorf("SourceNames lists %q but ValidSource rejects it", name)
		}
	}
	for _, name := range TargetNames() {
		if !ValidTarget(name) {
			t.Errorf("TargetNames lists %q but ValidTarget rejects it", name)
		}
	}
	if _, err := NewSource("nope", SourceEnv{}); err == nil {
		t.Error("NewSource(nope) did not error")
	}
	if _, _, err := NewTarget("nope", TargetEnv{}); err == nil {
		t.Error("NewTarget(nope) did not error")
	}
	// Every registered policy must describe itself with a citation: the
	// generated reference and -list-policies depend on it.
	for _, info := range Describe() {
		if info.Name == "" || info.Kind == "" || info.Desc == "" || info.Cite == "" {
			t.Errorf("policy %+v: incomplete Info", info)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering an existing source policy did not panic")
		}
	}()
	registerSource(Info{Name: "none"}, func(SourceEnv) regulate.Source { return regulate.Unthrottled{} })
}

func TestBankRegTokens(t *testing.T) {
	reg, hi, _ := testRegistry(2, 2)
	env := SourceEnv{
		Params: testParams(), Reg: reg, Class: hi,
		NumMCs: 2, PeakBytesPerCycle: 16,
	}
	src, err := NewSource("bankreg", env)
	if err != nil {
		t.Fatal(err)
	}
	b := src.(*bankRegulator)

	// budget = share(0.75) × perMC capacity (16/2 B/cyc × 2000 cyc / 64 B
	// = 250 lines) / 2 threads = 93 lines.
	if b.budget != 93 {
		t.Fatalf("budget = %d, want 93", b.budget)
	}

	// Exhaust channel 0; channel 1 must keep flowing (per-channel
	// isolation).
	for i := int64(0); i < b.budget; i++ {
		if !src.CanIssue(0, 0) {
			t.Fatalf("channel 0 blocked after %d of %d issues", i, b.budget)
		}
		src.OnIssue(0, 0)
	}
	if src.CanIssue(0, 0) {
		t.Error("channel 0 still open past its budget")
	}
	if !src.CanIssue(0, 1) {
		t.Error("channel 1 blocked by channel 0's exhaustion")
	}

	// An L3 hit refunds the channel, clamped at the budget; a writeback
	// charges it, possibly below zero.
	src.OnResponse(&mem.Packet{MC: 0, L3Hit: true}, 0)
	if !src.CanIssue(0, 0) {
		t.Error("L3-hit refund did not reopen channel 0")
	}
	src.OnResponse(&mem.Packet{MC: 1, L3Hit: true}, 0)
	if b.tokens[1] != b.budget {
		t.Errorf("refund overfilled channel 1: %d > budget %d", b.tokens[1], b.budget)
	}

	// The epoch replenishes regardless of saturation (no feedback).
	src.Epoch(regulate.Heartbeat{SatAny: true})
	if b.tokens[0] != b.budget || b.tokens[1] != b.budget {
		t.Errorf("epoch did not replenish: %v", b.tokens)
	}
}

func src2bank(t *testing.T, env SourceEnv) *bankRegulator {
	t.Helper()
	s, err := NewSource("bankreg", env)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*bankRegulator)
}

func TestLMSARPredictorConverges(t *testing.T) {
	reg, hi, _ := testRegistry(2, 2)
	env := SourceEnv{Params: testParams(), Reg: reg, Class: hi, NumMCs: 2, PeakBytesPerCycle: 16}
	src, err := NewSource("lmsar", env)
	if err != nil {
		t.Fatal(err)
	}
	l := src.(*lmsRegulator)

	// Constant demand: the filter starts as a last-value predictor, so
	// the prediction locks on after one observation and the error goes
	// to zero.
	const demand = 120
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < demand; i++ {
			src.OnDemand(0)
		}
		src.Epoch(regulate.Heartbeat{})
	}
	if l.pred != demand {
		t.Errorf("constant input: pred = %d, want %d", l.pred, demand)
	}
	if l.errAbs != 0 {
		t.Errorf("constant input: |error| = %d after 6 epochs, want 0", l.errAbs)
	}

	// Uncontended budget = max(pred+25%, fair share); here fair (375
	// lines) exceeds pred+25% (150), so the installed period must match
	// the fair-share floor — the idle tile is not starved by its own
	// history.
	fair := l.fairLines()
	_, _, period, _ := l.ProbeState()
	if want := 2000 / uint64(fair); period != want {
		t.Errorf("uncontended period = %d, want fair-share floor %d", period, want)
	}

	// Under saturation a hot predictor is clamped to the fair share.
	for i := 0; i < 4000; i++ {
		src.OnDemand(0)
	}
	src.Epoch(regulate.Heartbeat{SatAny: true})
	if _, _, period, _ := l.ProbeState(); period != 2000/uint64(fair) {
		t.Errorf("saturated period = %d, want fair-share clamp %d", period, 2000/uint64(fair))
	}
}

func TestLMSARCkptRoundtrip(t *testing.T) {
	reg, hi, _ := testRegistry(2, 2)
	env := SourceEnv{Params: testParams(), Reg: reg, Class: hi, NumMCs: 2, PeakBytesPerCycle: 16}
	mk := func() *lmsRegulator {
		s, err := NewSource("lmsar", env)
		if err != nil {
			t.Fatal(err)
		}
		return s.(*lmsRegulator)
	}
	orig := mk()
	// A varying demand ramp exercises the filter taps.
	now := uint64(0)
	for epoch := 0; epoch < 5; epoch++ {
		for i := 0; i < 50+30*epoch; i++ {
			orig.OnDemand(now)
		}
		if orig.CanIssue(now, 0) {
			orig.OnIssue(now, 0)
		}
		now += 2000
		orig.Epoch(regulate.Heartbeat{Now: now, SatAny: epoch%2 == 0})
	}

	restored := mk()
	raw, err := ckpt.Encode(ckpt.Header{}, orig)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(restored); err != nil {
		t.Fatal(err)
	}

	// The restored regulator must continue with identical decisions:
	// same registers now, same registers after one more identical epoch.
	check := func(stage string) {
		t.Helper()
		om, od, op, _ := orig.ProbeState()
		rm, rd, rp, _ := restored.ProbeState()
		if om != rm || od != rd || op != rp {
			t.Errorf("%s: ProbeState (%d,%d,%d) vs restored (%d,%d,%d)", stage, om, od, op, rm, rd, rp)
		}
		if orig.CanIssue(now, 0) != restored.CanIssue(now, 0) {
			t.Errorf("%s: CanIssue diverged", stage)
		}
	}
	check("after restore")
	for i := 0; i < 80; i++ {
		orig.OnDemand(now)
		restored.OnDemand(now)
	}
	now += 2000
	orig.Epoch(regulate.Heartbeat{Now: now})
	restored.Epoch(regulate.Heartbeat{Now: now})
	check("after one more epoch")
}

func TestDPQDeadlines(t *testing.T) {
	reg, hi, lo := testRegistry(2, 2)
	env := TargetEnv{Params: testParams(), Reg: reg}
	sched, arb, err := NewTarget("dpq", env)
	if err != nil {
		t.Fatal(err)
	}
	if sched != dram.SchedEDF {
		t.Fatalf("dpq scheduler = %v, want EDF", sched)
	}
	a := arb.(*dpqArbiter)

	// Deadline = arrival + stride × scale: the 3:1 weights reduce to
	// strides 1 and 3, Slack=64 scales them to offsets 64 and 192.
	const now = 10_000
	hiPkt := &mem.Packet{Class: hi}
	loPkt := &mem.Packet{Class: lo}
	arb.OnAccept(hiPkt, now)
	arb.OnAccept(loPkt, now)
	if want := uint64(now + 1*64); hiPkt.Deadline != want {
		t.Errorf("hi deadline = %d, want %d", hiPkt.Deadline, want)
	}
	if want := uint64(now + 3*64); loPkt.Deadline != want {
		t.Errorf("lo deadline = %d, want %d", loPkt.Deadline, want)
	}
	if hiPkt.Deadline >= loPkt.Deadline {
		t.Error("higher weight did not get the tighter deadline")
	}

	// The latency bound: no class's offset exceeds maxStride × scale,
	// so a request can be overtaken by at most the deadline spread.
	maxOffset := uint64(0)
	for _, c := range reg.Classes() {
		if off := reg.Stride(c.ID) * 64; off > maxOffset {
			maxOffset = off
		}
	}
	for _, pkt := range []*mem.Packet{hiPkt, loPkt} {
		if pkt.Deadline-now > maxOffset {
			t.Errorf("class %d offset %d exceeds bound %d", pkt.Class, pkt.Deadline-now, maxOffset)
		}
	}

	arb.OnPick(loPkt, now+5)
	if a.LastPicked() != loPkt.Deadline {
		t.Errorf("LastPicked = %d, want %d", a.LastPicked(), loPkt.Deadline)
	}

	// Slack=0 must fall back to scale 1, not stamp arrival-order-only
	// deadlines with zero offset.
	p := testParams()
	p.Slack = 0
	_, arb0, err := NewTarget("dpq", TargetEnv{Params: p, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &mem.Packet{Class: lo}
	arb0.OnAccept(pkt, now)
	if want := uint64(now + 3); pkt.Deadline != want {
		t.Errorf("Slack=0: deadline = %d, want %d (scale floor 1)", pkt.Deadline, want)
	}
}

func TestFCFSTargetIsBaseline(t *testing.T) {
	reg, _, _ := testRegistry(1, 1)
	sched, arb, err := NewTarget("fcfs", TargetEnv{Params: testParams(), Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sched != dram.SchedFCFS || arb != nil {
		t.Errorf("fcfs = (%v, %v), want (SchedFCFS, nil) so soc can skip SetScheduler", sched, arb)
	}
}
