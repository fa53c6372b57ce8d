package pabst

import (
	"testing"
	"testing/quick"

	"pabst/internal/mem"
	"pabst/internal/qos"
)

// Eq. 5: goal rates are in exact weight proportion. Rate per class is
// threads/source_period, so rate ratios must equal weight ratios for any
// M the monitors produce.
func TestRateProportionalityInvariant(t *testing.T) {
	f := func(w1x, w2x uint8, threads1x, threads2x uint8, mx uint16) bool {
		w1 := uint64(w1x)%31 + 1
		w2 := uint64(w2x)%31 + 1
		th1 := int(threads1x)%16 + 1
		th2 := int(threads2x)%16 + 1
		m := uint64(mx) + 1

		reg := qos.NewRegistry()
		c1 := reg.MustAdd("a", w1, 4)
		c2 := reg.MustAdd("b", w2, 4)

		// Use F=1 so the periods are exact; the F divide only loses
		// fractional resolution, which the scale factor exists to
		// mitigate.
		p1 := RatePeriod(m, c1.Stride, th1, 1)
		p2 := RatePeriod(m, c2.Stride, th2, 1)

		// rate_c = threads_c / source_period_c. Cross-multiplied:
		// rate1/rate2 == w1/w2  <=>  th1*p2*w2 == th2*p1*w1
		return uint64(th1)*p2*w2 == uint64(th2)*p1*w1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRatePeriodScalesWithThreads(t *testing.T) {
	// Doubling the active threads doubles the per-source period so the
	// class total stays constant (Eq. 4).
	if RatePeriod(100, 2, 8, 16) != 2*RatePeriod(100, 2, 4, 16) {
		t.Fatal("period does not scale linearly with thread count")
	}
}

func TestRatePeriodZeroThreadsSafe(t *testing.T) {
	if RatePeriod(100, 2, 0, 16) == 0 {
		t.Fatal("zero threads should behave as one, not unthrottle")
	}
}

func TestGovernorEpochInstallsPeriod(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("hi", 1, 4)
	reg.AttachCPU(c.ID)
	params := testParams()
	g := NewGovernor(params, reg, c.ID)
	if g.Pacer(0).Period() != 0 {
		t.Fatal("period should start at zero")
	}
	g.Epoch(hb(true))
	want := RatePeriod(g.Monitor(0).M(), c.Stride, 1, params.ScaleF)
	if g.Pacer(0).Period() != want {
		t.Fatalf("period = %d, want %d", g.Pacer(0).Period(), want)
	}
}

func TestGovernorTracksWeightChange(t *testing.T) {
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 1, 4)
	b := reg.MustAdd("b", 1, 4)
	reg.AttachCPU(a.ID)
	reg.AttachCPU(b.ID)
	ga := NewGovernor(testParams(), reg, a.ID)
	gb := NewGovernor(testParams(), reg, b.ID)
	ga.Epoch(hb(true))
	gb.Epoch(hb(true))
	if ga.Pacer(0).Period() != gb.Pacer(0).Period() {
		t.Fatal("equal weights must give equal periods")
	}
	// Software quadruples a's share; next epoch must reflect it.
	if err := reg.SetWeight(a.ID, 4); err != nil {
		t.Fatal(err)
	}
	ga.Epoch(hb(true))
	gb.Epoch(hb(true))
	if 4*ga.Pacer(0).Period() != gb.Pacer(0).Period() {
		t.Fatalf("periods %d vs %d, want 1:4 after reweighting",
			ga.Pacer(0).Period(), gb.Pacer(0).Period())
	}
}

func TestGovernorOnResponseFlags(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	g := NewGovernor(testParams(), reg, c.ID)
	g.Epoch(hb(true))
	now := uint64(100000)
	for g.CanIssue(now, 0) {
		g.OnIssue(now, 0)
	}
	// An L3 hit refunds headroom.
	g.OnResponse(&mem.Packet{L3Hit: true}, now)
	if !g.CanIssue(now, 0) {
		t.Fatal("L3 hit did not refund")
	}
	// A writeback flag charges it back.
	g.OnResponse(&mem.Packet{WBGen: true}, now)
	if g.CanIssue(now, 0) {
		t.Fatal("writeback flag did not charge")
	}
	// Both on one response cancel.
	before := g.Pacer(0).cNext
	g.OnResponse(&mem.Packet{L3Hit: true, WBGen: true}, now)
	if g.Pacer(0).cNext != before {
		t.Fatal("hit+writeback response did not cancel")
	}
}

// The demand accumulator exists for the Section V-B split: with
// HeterogeneousThreads off nothing reads it, so it must not count (it
// used to grow for the whole run and ride along in every checkpoint).
func TestGovernorDemandCountedOnlyForHeteroSplit(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	for _, hetero := range []bool{false, true} {
		p := testParams()
		p.HeterogeneousThreads = hetero
		g := NewGovernor(p, reg, c.ID)
		for i := 0; i < 5; i++ {
			g.OnDemand(uint64(i))
		}
		if want := map[bool]uint64{false: 0, true: 5}[hetero]; g.demand != want {
			t.Fatalf("hetero=%v: demand %d after 5 misses, want %d", hetero, g.demand, want)
		}
		g.Epoch(hb(false))
		if g.demand != 0 {
			t.Fatalf("hetero=%v: demand %d survives the epoch", hetero, g.demand)
		}
	}
}

func TestGovernorsLockstepEndToEnd(t *testing.T) {
	// Two governors for different classes fed the same SAT sequence
	// keep identical M and period ratios equal to stride ratios.
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", 7, 4)
	lo := reg.MustAdd("lo", 3, 4)
	for i := 0; i < 16; i++ {
		reg.AttachCPU(hi.ID)
		reg.AttachCPU(lo.ID)
	}
	ghi := NewGovernor(testParams(), reg, hi.ID)
	glo := NewGovernor(testParams(), reg, lo.ID)
	rng := []bool{true, true, false, true, false, false, true, false, true, true}
	for i := 0; i < 100; i++ {
		sat := rng[i%len(rng)]
		ghi.Epoch(hb(sat))
		glo.Epoch(hb(sat))
		if ghi.Monitor(0).M() != glo.Monitor(0).M() {
			t.Fatal("governors diverged on identical inputs")
		}
		// Period ratio must equal stride ratio (threads equal).
		ph, pl := ghi.Pacer(0).Period(), glo.Pacer(0).Period()
		if ph*uint64(7) > pl*uint64(3)+uint64(7*16) || pl*3 > ph*7+7*16 {
			// Allow only integer-division slack from the F divide.
			t.Fatalf("period ratio %d:%d drifted from stride ratio 3:7", ph, pl)
		}
	}
}
