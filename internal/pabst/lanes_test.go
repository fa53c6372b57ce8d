package pabst

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
)

// newLanes4 builds the Section III-C1 governor of a four-channel machine.
func newLanes4(t *testing.T) (*Governor, *qos.Class) {
	t.Helper()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	return NewLaneGovernor(testParams(), reg, c.ID, 4), c
}

func TestLanesIndependentChannels(t *testing.T) {
	g, _ := newLanes4(t)
	// Channel 0 saturated, others idle, repeatedly.
	for i := 0; i < 50; i++ {
		g.Epoch(hbMC(true, []bool{true, false, false, false}))
	}
	// Channel 0 heavily throttled, others nearly unthrottled.
	if g.Pacer(0).Period() <= g.Pacer(1).Period() {
		t.Fatalf("saturated channel period %d should exceed idle channel period %d",
			g.Pacer(0).Period(), g.Pacer(1).Period())
	}
	if g.Monitor(1).M() != MMin {
		t.Fatalf("idle channel M = %d, want MMin", g.Monitor(1).M())
	}
}

func TestLanesFallBackToGlobalSAT(t *testing.T) {
	g, _ := newLanes4(t)
	// Short vector: missing channels use the wired-OR bit.
	g.Epoch(hb(true))
	for i := 0; i < 4; i++ {
		if g.Monitor(i).Dir() != RateDown {
			t.Fatalf("channel %d ignored global SAT", i)
		}
	}
}

func TestLanesPeriodScaling(t *testing.T) {
	// At equal M, the per-channel period must be numMCs x the global
	// governor's period, so an evenly spread class sees the same total
	// rate.
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	params := testParams()
	mg := NewLaneGovernor(params, reg, c.ID, 4)
	gg := NewGovernor(params, reg, c.ID)
	mg.Epoch(hbMC(true, []bool{true, true, true, true}))
	gg.Epoch(hb(true))
	if mg.Pacer(0).Period() != 4*gg.Pacer(0).Period() {
		t.Fatalf("per-MC period %d, want 4x global %d", mg.Pacer(0).Period(), gg.Pacer(0).Period())
	}
}

func TestLanesResponseRoutesToChannelPacer(t *testing.T) {
	g, _ := newLanes4(t)
	g.Epoch(hbMC(true, []bool{true, true, true, true}))
	now := uint64(100000)
	// Spend channel 2's credit.
	for g.CanIssue(now, 2) {
		g.OnIssue(now, 2)
	}
	if g.CanIssue(now, 2) {
		t.Fatal("precondition")
	}
	// A hit refund for a request bound for channel 2 restores it; a
	// refund on channel 1 must not.
	g.OnResponse(&mem.Packet{MC: 1, L3Hit: true}, now)
	if g.CanIssue(now, 2) {
		t.Fatal("refund leaked across channels")
	}
	g.OnResponse(&mem.Packet{MC: 2, L3Hit: true}, now)
	if !g.CanIssue(now, 2) {
		t.Fatal("refund did not reach the right channel pacer")
	}
}

func TestLaneGovernorValidation(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	for _, lanes := range []int{0, -1} {
		func() {
			defer func() { _ = recover() }()
			NewLaneGovernor(testParams(), reg, c.ID, lanes)
			t.Fatalf("governor with %d lanes accepted", lanes)
		}()
	}
	// One lane is the global governor: same type, same single pacer
	// whatever the destination channel.
	g := NewLaneGovernor(testParams(), reg, c.ID, 1)
	if _, _, _, multi := g.ProbeState(); multi || g.Lanes() != 1 {
		t.Fatal("one lane reported as per-controller")
	}
	g.OnIssue(0, 3)
	g.OnResponse(&mem.Packet{MC: 2, L3Hit: true}, 0)
}
