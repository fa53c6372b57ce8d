package qospolicy

import (
	"fmt"
	"math/rand"
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
		t.Errorf("fcfs = (%v, %v), want (SchedFCFS, nil), the controller's construction default", sched, arb)
	}
}

// randomSourceEnv draws one tile's regulation problem: one to four
// classes of random weight and thread count, one to eight channels, a
// random DRAM peak, epoch length and burst credit.
func randomSourceEnv(rng *rand.Rand) SourceEnv {
	reg := qos.NewRegistry()
	classes := 1 + rng.Intn(4)
	for i := 0; i < classes; i++ {
		c := reg.MustAdd(fmt.Sprintf("c%d", i), uint64(1+rng.Intn(16)), 4)
		for th := 1 + rng.Intn(8); th > 0; th-- {
			reg.AttachCPU(c.ID)
		}
	}
	params := testParams()
	params.EpochCycles = uint64(500 + rng.Intn(2500))
	params.BurstCredit = 1 + rng.Intn(8)
	return SourceEnv{
		Params: params, Reg: reg, Class: mem.ClassID(rng.Intn(classes)),
		NumMCs: 1 + rng.Intn(8), PeakBytesPerCycle: float64(4 + rng.Intn(61)),
	}
}

// driveTile feeds src the stream a tile would, for the given number of
// regulation periods. Each period is idle, a flood (a miss every cycle)
// or a random trickle, so credit saved in one period meets backlog in
// the next; each cycle the tile may generate a miss for a random channel
// (at most 16 outstanding), inject one queued miss the source grants
// (scanning channels from a random start, as the tile's round-robin
// does), and complete one in-flight request as an L3 hit and/or a
// writeback-generating fill. Between periods the class may be reweighted
// and the heartbeat carries a random SAT bit. installed runs right after
// each Epoch; granted runs after every grant with the period's
// per-channel grant and L3-hit-refund counts so far.
func driveTile(rng *rand.Rand, src regulate.Source, env SourceEnv, periods int,
	installed func(sat bool), granted func(mc int, grants, refunds []int)) {
	n := env.NumMCs
	queued, inflight := make([]int, n), make([]int, n)
	grants, refunds := make([]int, n), make([]int, n)
	// scan returns the first channel from a random start that holds work
	// and passes ok, or -1.
	scan := func(work []int, ok func(mc int) bool) int {
		for i, start := 0, rng.Intn(n); i < n; i++ {
			if mc := (start + i) % n; work[mc] > 0 && ok(mc) {
				return mc
			}
		}
		return -1
	}
	respP, hitP, wbP := rng.Float64(), rng.Float64()/2, rng.Float64()/2
	outstanding, now := 0, uint64(0)
	for p := 0; p < periods; p++ {
		if rng.Intn(4) == 0 {
			if err := env.Reg.SetWeight(env.Class, uint64(1+rng.Intn(16))); err != nil {
				panic(err)
			}
		}
		sat := rng.Intn(2) == 0
		src.Epoch(regulate.Heartbeat{Now: now, SatAny: sat})
		clear(grants)
		clear(refunds)
		installed(sat)
		missP := []float64{0, 1, rng.Float64()}[rng.Intn(3)]
		for end := now + env.Params.EpochCycles; now < end; now++ {
			if outstanding < 16 && rng.Float64() < missP {
				queued[rng.Intn(n)]++
				outstanding++
				src.OnDemand(now)
			}
			if mc := scan(queued, func(mc int) bool { return src.CanIssue(now, mc) }); mc >= 0 {
				src.OnIssue(now, mc)
				queued[mc]--
				inflight[mc]++
				grants[mc]++
				granted(mc, grants, refunds)
			}
			if mc := scan(inflight, func(int) bool { return rng.Float64() < respP }); mc >= 0 {
				inflight[mc]--
				outstanding--
				pkt := mem.Packet{MC: mc, L3Hit: rng.Float64() < hitP, WBGen: rng.Float64() < wbP}
				if pkt.L3Hit {
					refunds[mc]++
				}
				src.OnResponse(&pkt, now)
			}
		}
	}
}

// TestBankRegGrantBound is the published bound of per-bank regulation
// (Sullivan et al.) at this simulator's channel granularity: within one
// regulation period a tile is granted at most its budget of transfers
// per channel, plus one for every transfer the shared cache absorbed
// (an L3 hit never reached the channel), whatever the shares, thread
// counts, channel count and interleaving of issues and responses.
func TestBankRegGrantBound(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := randomSourceEnv(rng)
		b := src2bank(t, env)
		chanLines := env.PeakBytesPerCycle / float64(env.NumMCs) * float64(env.Params.EpochCycles) / mem.LineSize
		budget := 0
		driveTile(rng, b, env, 12, func(bool) {
			budget = int(b.budget)
			entitled := env.Reg.Share(env.Class) * chanLines / float64(env.Reg.Threads(env.Class))
			if budget < 1 || float64(budget) > max(entitled, 1) {
				t.Fatalf("seed %d: budget %d outside [1, %.1f lines of entitlement]", seed, budget, entitled)
			}
		}, func(mc int, grants, refunds []int) {
			if grants[mc] > budget+refunds[mc] {
				t.Fatalf("seed %d: channel %d granted %d this period, budget %d + %d refunds", seed, mc, grants[mc], budget, refunds[mc])
			}
		})
	}
}

// TestLMSARGrantBound is LMS-AR's regulation guarantee (Srinivasan et
// al.): within one period the tile's memory-bound grants (grants less
// those the shared cache absorbed) never exceed the budget the regulator
// installed — read back from its probe as ceil(EpochCycles / period) —
// plus BurstCredit, across period swaps, carried credit and debt, and
// writeback charges; and under saturation the installed rate is clamped
// to the fair share.
func TestLMSARGrantBound(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := randomSourceEnv(rng)
		src, err := NewSource("lmsar", env)
		if err != nil {
			t.Fatal(err)
		}
		l := src.(*lmsRegulator)
		epoch := env.Params.EpochCycles
		budget := 0 // 0: unthrottled this period (the prediction exceeds one line per cycle)
		driveTile(rng, src, env, 12, func(sat bool) {
			_, _, period, _ := l.ProbeState()
			if budget = 0; period > 0 {
				budget = int((epoch + period - 1) / period)
			}
			if fair := uint64(l.fairLines()); sat && period < epoch/fair {
				t.Fatalf("seed %d: saturated period %d shorter than the fair-share clamp %d", seed, period, epoch/fair)
			}
		}, func(_ int, grants, refunds []int) {
			net := 0
			for mc := range grants {
				net += grants[mc] - refunds[mc]
			}
			if budget > 0 && net > budget+env.Params.BurstCredit {
				t.Fatalf("seed %d: %d memory-bound grants this period, installed budget %d + burst %d", seed, net, budget, env.Params.BurstCredit)
			}
		})
	}
}
