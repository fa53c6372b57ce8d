package pabst

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
)

func TestStaticLimiterPeriodFromShare(t *testing.T) {
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 3, 4) // 75%
	reg.MustAdd("b", 1, 4)      // 25%
	for i := 0; i < 4; i++ {
		reg.AttachCPU(a.ID)
	}
	peak := 36.6 // B/cyc
	s := NewStaticLimiter(testParams(), reg, a.ID, peak)
	// rate = 0.75 * 36.6 / 64 lines/cyc over 4 threads
	// period = threads / rate = 4 * 64 / (0.75*36.6) ~ 9.3 -> 9
	if p := s.Pacer().Period(); p < 8 || p > 10 {
		t.Fatalf("static period = %d, want ~9", p)
	}
}

func TestStaticLimiterFollowsReweighting(t *testing.T) {
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 1, 4)
	reg.MustAdd("b", 1, 4)
	reg.AttachCPU(a.ID)
	s := NewStaticLimiter(testParams(), reg, a.ID, 36.6)
	before := s.Pacer().Period()
	if err := reg.SetWeight(a.ID, 9); err != nil { // 50% -> 90%
		t.Fatal(err)
	}
	s.Epoch(hb(true)) // heartbeat re-reads the share
	after := s.Pacer().Period()
	if after >= before {
		t.Fatalf("period %d -> %d: larger share should pace faster", before, after)
	}
}

func TestStaticLimiterIgnoresSAT(t *testing.T) {
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 1, 4)
	reg.AttachCPU(a.ID)
	s := NewStaticLimiter(testParams(), reg, a.ID, 36.6)
	p0 := s.Pacer().Period()
	for i := 0; i < 50; i++ {
		s.Epoch(hbMC(false, []bool{false})) // system idle: a governor would unthrottle
	}
	if s.Pacer().Period() != p0 {
		t.Fatal("static limiter responded to saturation feedback")
	}
	s.OnDemand(0) // no-op by definition
	if s.Pacer().Period() != p0 {
		t.Fatal("static limiter responded to demand")
	}
}

func TestStaticLimiterIssueAndCorrections(t *testing.T) {
	reg := qos.NewRegistry()
	a := reg.MustAdd("a", 1, 4)
	reg.AttachCPU(a.ID)
	s := NewStaticLimiter(testParams(), reg, a.ID, 36.6)
	now := uint64(100_000)
	n := 0
	for s.CanIssue(now, 0) && n < 1000 {
		s.OnIssue(now, 0)
		n++
	}
	if n == 0 || n >= 1000 {
		t.Fatalf("burst of %d, want bounded and positive", n)
	}
	s.OnResponse(&mem.Packet{L3Hit: true}, now)
	if !s.CanIssue(now, 0) {
		t.Fatal("L3 hit refund not applied")
	}
}

func TestGovernorClassAccessors(t *testing.T) {
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, 4)
	reg.AttachCPU(c.ID)
	if g := NewGovernor(testParams(), reg, c.ID); g.Class() != c.ID {
		t.Fatal("Governor.Class mismatch")
	}
	if g := NewLaneGovernor(testParams(), reg, c.ID, 2); g.Class() != c.ID || g.Lanes() != 2 {
		t.Fatal("per-controller Governor accessors mismatch")
	}
}
