package pabst

import (
	"math"
	"testing"

	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// hb builds a minimal heartbeat for tests exercising the SAT path only.
func hb(sat bool) regulate.Heartbeat { return regulate.Heartbeat{SatAny: sat} }

// hbMC builds a heartbeat with a per-controller saturation vector.
func hbMC(sat bool, perMC []bool) regulate.Heartbeat {
	return regulate.Heartbeat{SatAny: sat, SatPerMC: perMC}
}

func TestRatePeriodOverflowSaturates(t *testing.T) {
	// m*stride*threads overflowing 64 bits must saturate (maximal
	// throttle), never wrap to a tiny period that un-throttles the class.
	p := RatePeriod(math.MaxUint64/2, 1<<20, 16, 256)
	if p < math.MaxUint64/1024 {
		t.Fatalf("overflowing rate period wrapped to %d", p)
	}
	// Monotonicity across the overflow boundary: a bigger M never gives
	// a shorter (more permissive) period.
	lo := RatePeriod(1<<40, 1<<20, 4, 256)
	hi := RatePeriod(1<<60, 1<<20, 4, 256)
	if hi < lo {
		t.Fatalf("period decreased across overflow: %d then %d", lo, hi)
	}
}

func TestWatchdogHoldsThenDecays(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	p := testParams()
	deadline := WatchdogEpochs * p.EpochCycles
	g := NewGovernor(p, reg, c.ID)

	// Drive M well above MInit with saturated epochs.
	now := uint64(0)
	for i := 0; i < 20; i++ {
		now += p.EpochCycles
		g.Epoch(regulate.Heartbeat{Now: now, SatAny: true})
	}
	mHigh := g.Monitor(0).M()
	if mHigh <= MInit {
		t.Fatalf("setup: M=%d did not rise above MInit=%d", mHigh, MInit)
	}

	// Silence. The first HoldDeadlines expiries hold M (gain reset only).
	for i := 0; i < HoldDeadlines; i++ {
		now += deadline
		g.WatchdogTick(now)
		if g.Monitor(0).M() != mHigh {
			t.Fatalf("expiry %d moved M during hold: %d", i, g.Monitor(0).M())
		}
		if g.Monitor(0).Shift() != ShiftMax {
			t.Fatal("hold did not reset gain (anti-windup)")
		}
	}
	// Prolonged silence decays toward the fallback (MInit here) and
	// lands exactly on it.
	for i := 0; i < 200 && g.Monitor(0).M() != MInit; i++ {
		now += deadline
		g.WatchdogTick(now)
	}
	if g.Monitor(0).M() != MInit {
		t.Fatalf("decay did not reach fallback: M=%d want %d", g.Monitor(0).M(), MInit)
	}
	d := g.Degrade()
	if d.StaleIntervals == 0 || d.Decays == 0 {
		t.Fatalf("degradation counters not recorded: %+v", d)
	}

	// A returning heartbeat clears the stale state: the next deadline's
	// worth of silence starts the hold phase over.
	now += p.EpochCycles
	g.Epoch(regulate.Heartbeat{Now: now, SatAny: true})
	mAfter := g.Monitor(0).M()
	now += deadline
	g.WatchdogTick(now)
	if g.Monitor(0).M() != mAfter {
		t.Fatal("first expiry after recovery should hold, not decay")
	}
}

func TestWatchdogInertBeforeDeadline(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	p := testParams()
	deadline := WatchdogEpochs * p.EpochCycles
	g := NewGovernor(p, reg, c.ID)
	g.Epoch(regulate.Heartbeat{Now: p.EpochCycles, SatAny: true})
	m := g.Monitor(0).M()
	// Every cycle short of the deadline must be a no-op.
	for now := p.EpochCycles; now < p.EpochCycles+deadline; now += 100 {
		g.WatchdogTick(now)
	}
	if g.Monitor(0).M() != m || g.Degrade().StaleIntervals != 0 {
		t.Fatal("watchdog fired before its deadline")
	}
}

func TestResyncConvergesWithinBound(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	p := testParams()

	lag := NewGovernor(p, reg, c.ID)  // diverged low (was partitioned)
	lead := NewGovernor(p, reg, c.ID) // tracked the max M
	for i := 0; i < 30; i++ {
		lead.Epoch(hb(true))
	}
	for i := 0; i < 3; i++ {
		lag.Epoch(hb(false))
	}
	target := lead.Monitor(0).M()
	if lag.Monitor(0).M() >= target {
		t.Fatal("setup: governors did not diverge")
	}

	// The heal: both receive resync gossip carrying the max M. Within
	// ResyncWithin heartbeats the lagging monitor must sit exactly on
	// the target, and both must be in the identical state.
	for i := 0; i < ResyncWithin; i++ {
		gossip := regulate.Heartbeat{Now: uint64(i+1) * p.EpochCycles, Resync: true, GossipM: target}
		lag.Epoch(gossip)
		lead.Epoch(gossip)
	}
	if lag.Monitor(0).M() != target || lead.Monitor(0).M() != target {
		t.Fatalf("not resynced after %d epochs: lag=%d lead=%d target=%d",
			ResyncWithin, lag.Monitor(0).M(), lead.Monitor(0).M(), target)
	}
	if lag.Monitor(0).Shift() != lead.Monitor(0).Shift() || lag.Monitor(0).E() != lead.Monitor(0).E() {
		t.Fatal("monitors left resync in different gain states")
	}
	// And they must stay in lockstep on a shared SAT sequence afterward.
	seq := []bool{true, false, true, true, false, false, true}
	for i, s := range seq {
		if lag.Epoch(hb(s)); true {
			lead.Epoch(hb(s))
		}
		if lag.Monitor(0).M() != lead.Monitor(0).M() {
			t.Fatalf("diverged again at post-resync epoch %d", i)
		}
	}
	if lag.Degrade().ResyncEpochs == 0 {
		t.Fatal("resync epochs not counted")
	}
}

// TestSilencedGovernorNeedsTheMachinery is the evidence that the
// degradation machinery is needed. A governor cut off from the heartbeat
// for 20 epochs while its peer keeps stepping comes back apart from it.
// Left alone (no WatchdogTick during the silence, no Resync heartbeat
// after it) the pair stays apart on a shared SAT sequence; with the
// watchdog ticking and the heartbeat gossiping the max M while the two
// differ, as internal/soc does on a faulted machine, it re-joins within
// ResyncWithin epochs and stays joined.
func TestSilencedGovernorNeedsTheMachinery(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	p := testParams()
	seq := []bool{true, false, true, true, false, false, true}
	const heal, after = 30, 20
	run := func(armed bool) (apart []bool) {
		cut, peer := NewGovernor(p, reg, c.ID), NewGovernor(p, reg, c.ID)
		for e := 0; e < heal+after; e++ {
			now := uint64(e+1) * p.EpochCycles
			if e >= 10 && e < heal { // the cut governor hears nothing
				peer.Epoch(regulate.Heartbeat{Now: now, SatAny: true})
				if armed {
					cut.WatchdogTick(now)
				}
				continue
			}
			mc, mp := cut.Monitor(0).M(), peer.Monitor(0).M()
			if e >= heal {
				apart = append(apart, mc != mp)
			}
			beat := regulate.Heartbeat{Now: now, SatAny: e < 10 || seq[e%len(seq)]}
			if armed && mc != mp {
				beat.Resync, beat.GossipM = true, max(mc, mp)
			}
			cut.Epoch(beat)
			peer.Epoch(beat)
		}
		return apart
	}
	for i, a := range run(false) {
		if !a {
			t.Fatalf("unarmed pair re-joined %d epochs after the heal without any resync", i)
		}
	}
	armed := run(true)
	if !armed[0] {
		t.Fatal("precondition: the armed pair came back from the silence joined")
	}
	for i, a := range armed[ResyncWithin:] {
		if a {
			t.Fatalf("armed pair apart %d epochs after the heal, want joined within %d", ResyncWithin+i, ResyncWithin)
		}
	}
}

func TestMonitorDecayFromBelowAndAbove(t *testing.T) {
	p := testParams()
	m := NewSystemMonitor(p)
	for i := 0; i < 40; i++ {
		m.Epoch(true) // drive M far above MInit
	}
	for i := 0; i < 200 && m.M() != MInit; i++ {
		m.Decay(MInit)
	}
	if m.M() != MInit {
		t.Fatalf("decay from above did not land on fallback: %d", m.M())
	}
	for i := 0; i < 40; i++ {
		m.Epoch(false) // drive M far below MInit
	}
	for i := 0; i < 200 && m.M() != MInit; i++ {
		m.Decay(MInit)
	}
	if m.M() != MInit {
		t.Fatalf("decay from below did not land on fallback: %d", m.M())
	}
}

func TestLanesWatchdog(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	p := testParams()
	deadline := WatchdogEpochs * p.EpochCycles
	p.PerMCGovernors = true
	g := NewLaneGovernor(p, reg, c.ID, 2)

	now := uint64(0)
	for i := 0; i < 20; i++ {
		now += p.EpochCycles
		g.Epoch(regulate.Heartbeat{Now: now, SatAny: true, SatPerMC: []bool{true, true}})
	}
	mHigh := g.Monitor(0).M()
	for i := 0; i <= HoldDeadlines; i++ {
		now += deadline
		g.WatchdogTick(now)
	}
	if g.Monitor(0).M() >= mHigh {
		t.Fatal("per-controller lanes never decayed after hold")
	}
	if g.Degrade().StaleIntervals == 0 {
		t.Fatal("stale intervals not counted")
	}
}
