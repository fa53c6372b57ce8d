package pabst

import (
	"testing"
	"testing/quick"
)

func testParams() Params {
	p := DefaultParams()
	p.EpochCycles = 1000
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.EpochCycles = 0 },
		func(p *Params) { p.ScaleF = 0 },
		func(p *Params) { p.Inertia = -1 },
		func(p *Params) { p.BurstCredit = 0 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

// TestBoundsAreOrdered holds the M and k bounds to the rules Validate
// applied while they were fields: M starts inside a nonempty range
// above zero, and k starts inside a range a uint64 shift can take.
func TestBoundsAreOrdered(t *testing.T) {
	if MMin == 0 || MMin > MInit || MInit > MMax {
		t.Fatalf("M bounds %d <= %d <= %d, want 0 < MMin <= MInit <= MMax", MMin, MInit, MMax)
	}
	if ShiftMin > ShiftInit || ShiftInit > ShiftMax || ShiftMax > 63 {
		t.Fatalf("shift bounds %d <= %d <= %d, want ShiftMin <= ShiftInit <= ShiftMax <= 63", ShiftMin, ShiftInit, ShiftMax)
	}
}

func TestMonitorDirectionFollowsSAT(t *testing.T) {
	m := NewSystemMonitor(testParams())
	before := m.M()
	m.Epoch(true) // saturated -> throttle -> M up
	if m.M() <= before || m.Dir() != RateDown {
		t.Fatalf("high SAT: M %d -> %d dir=%v, want M up, rate-down", before, m.M(), m.Dir())
	}
	before = m.M()
	m.Epoch(false)
	if m.M() >= before || m.Dir() != RateUp {
		t.Fatalf("low SAT: M %d -> %d dir=%v, want M down, rate-up", before, m.M(), m.Dir())
	}
}

func TestMonitorBoundsHold(t *testing.T) {
	p := testParams()
	f := func(sats []bool) bool {
		m := NewSystemMonitor(p)
		for _, s := range sats {
			m.Epoch(s)
			if m.M() < MMin || m.M() > MMax {
				return false
			}
			if m.Shift() < ShiftMin || m.Shift() > ShiftMax {
				return false
			}
			if m.DM() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorSteadySATRampsM(t *testing.T) {
	p := testParams()
	m := NewSystemMonitor(p)
	// Sustained saturation: after inertia epochs the gain narrows each
	// epoch, so M accelerates past a fixed-step trajectory.
	var ms []uint64
	for i := 0; i < 20; i++ {
		m.Epoch(true)
		ms = append(ms, m.M())
	}
	if m.Shift() != ShiftMin {
		t.Fatalf("gain shift = %d after 20 steady epochs, want floor %d", m.Shift(), ShiftMin)
	}
	// Relative growth per epoch approaches 1/2^ShiftMin = 25%.
	last, prev := ms[len(ms)-1], ms[len(ms)-2]
	if float64(last-prev)/float64(prev) < 0.2 {
		t.Fatalf("steady-state growth %.3f too slow: %v", float64(last-prev)/float64(prev), ms)
	}
}

func TestMonitorFlipCollapsesGain(t *testing.T) {
	p := testParams()
	m := NewSystemMonitor(p)
	for i := 0; i < 10; i++ {
		m.Epoch(true)
	}
	kBefore := m.Shift()
	if kBefore != ShiftMin {
		t.Fatalf("precondition: gain should be at floor, got %d", kBefore)
	}
	m.Epoch(false) // flip
	if m.Shift() != kBefore+2 {
		t.Fatalf("flip moved shift %d -> %d, want +2 (δM / 4)", kBefore, m.Shift())
	}
	if m.E() != 0 {
		t.Fatalf("E = %d after flip, want 0", m.E())
	}
}

func TestMonitorNoisySATKeepsStepsSmall(t *testing.T) {
	p := testParams()
	m := NewSystemMonitor(p)
	for i := 0; i < 100; i++ {
		m.Epoch(i%2 == 0) // alternating SAT
	}
	if m.Shift() != ShiftMax {
		t.Fatalf("alternating SAT left gain shift at %d, want max %d", m.Shift(), ShiftMax)
	}
	// Relative step is bounded by 1/2^ShiftMax.
	if m.DM() > m.M()>>ShiftMax+1 {
		t.Fatalf("noisy-SAT step %d too large for M=%d", m.DM(), m.M())
	}
}

func TestMonitorECounts(t *testing.T) {
	m := NewSystemMonitor(testParams())
	m.Epoch(true)
	if m.E() != 0 {
		t.Fatalf("first epoch E = %d, want 0", m.E())
	}
	m.Epoch(true)
	m.Epoch(true)
	if m.E() != 2 {
		t.Fatalf("E = %d after 3 same-direction epochs, want 2", m.E())
	}
	m.Epoch(false)
	if m.E() != 0 {
		t.Fatalf("E = %d after flip, want 0", m.E())
	}
}

func TestMonitorMSaturatesAtBounds(t *testing.T) {
	p := testParams()
	m := NewSystemMonitor(p)
	for i := 0; i < 10000; i++ {
		m.Epoch(true)
	}
	if m.M() != MMax {
		t.Fatalf("M = %d after sustained SAT, want MMax %d", m.M(), MMax)
	}
	if m.Shift() != ShiftMax {
		t.Fatal("anti-windup did not reset gain at MMax")
	}
	for i := 0; i < 10000; i++ {
		m.Epoch(false)
	}
	if m.M() != MMin {
		t.Fatalf("M = %d after sustained low SAT, want MMin %d", m.M(), MMin)
	}
	if m.Shift() != ShiftMax {
		t.Fatal("anti-windup did not reset gain at MMin")
	}
}

// The distributed-lockstep property: monitors fed identical inputs stay
// in identical states regardless of the input sequence.
func TestMonitorsStayInLockstep(t *testing.T) {
	p := testParams()
	f := func(sats []bool) bool {
		a, b := NewSystemMonitor(p), NewSystemMonitor(p)
		for _, s := range sats {
			ma, mb := a.Epoch(s), b.Epoch(s)
			if ma != mb || a.DM() != b.DM() || a.E() != b.E() || a.Dir() != b.Dir() || a.Shift() != b.Shift() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorResponseTimeAfterDemandShift(t *testing.T) {
	// After converging low, a sustained saturation burst must drive M
	// up by a large factor within a modest number of epochs
	// (responsiveness via the multiplicative gain).
	p := testParams()
	m := NewSystemMonitor(p)
	for i := 0; i < 200; i++ {
		m.Epoch(false)
	}
	if m.M() != MMin {
		t.Fatalf("M = %d, want MMin", m.M())
	}
	for i := 0; i < 60; i++ {
		m.Epoch(true)
	}
	if m.M() < 1000 {
		t.Fatalf("M = %d after 60 saturated epochs, multiplicative ramp too slow", m.M())
	}
}

// Convergence: from any starting point, a plant whose SAT is a simple
// threshold on M must settle into a small neighborhood of the threshold.
func TestMonitorConvergesOnThresholdPlant(t *testing.T) {
	p := testParams()
	for _, target := range []uint64{50, 300, 2000, 100000} {
		m := NewSystemMonitor(p)
		// SAT is high when the rate is too high, i.e. M below target.
		for i := 0; i < 400; i++ {
			m.Epoch(m.M() < target)
		}
		// Measure the residual oscillation band over the next epochs.
		lo, hi := m.M(), m.M()
		for i := 0; i < 100; i++ {
			m.Epoch(m.M() < target)
			if m.M() < lo {
				lo = m.M()
			}
			if m.M() > hi {
				hi = m.M()
			}
		}
		if float64(hi-lo) > 0.25*float64(target)+4 {
			t.Fatalf("target %d: residual band [%d, %d] too wide", target, lo, hi)
		}
		if lo > target*2 || hi < target/2 {
			t.Fatalf("target %d: converged to wrong neighborhood [%d, %d]", target, lo, hi)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if RateUp.String() != "rate-up" || RateDown.String() != "rate-down" {
		t.Fatal("Direction.String mismatch")
	}
}
