package soc

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// The validation suite is this reproduction's analog of the paper's
// "performance within 10% of data center hardware" check: measured
// behavior is cross-checked against analytically computable values of
// the modeled system.

// TestValidateUncontendedMissLatency checks a single dependent chain's
// end-to-end miss latency against the sum of the modeled components.
func TestValidateUncontendedMissLatency(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	// One strictly dependent random chain: every access is an
	// uncontended DRAM round trip.
	if err := sys.Attach(0, c.ID, workload.NewChaser("v", tileRegion(0), 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)

	measured := classOf(sys, c.ID).MissLatency
	// Components: tile->slice hop + slice access + slice->MC hop +
	// DRAM ACT+CAS+burst + MC->tile hop. Mesh hops average ~8 cycles
	// each on the 4x2 grid with base 4.
	tm := cfg.DRAM.Timing
	analytic := float64(3*8 + cfg.L3HitLat + tm.TRCD + tm.TCL + tm.TBurst)
	if measured < 0.8*analytic || measured > 1.3*analytic {
		t.Fatalf("uncontended miss latency %.0f vs analytic ~%.0f (+/-30%%)", measured, analytic)
	}
}

// TestValidatePeakBandwidth checks the flood throughput against the
// data-bus limit.
func TestValidatePeakBandwidth(t *testing.T) {
	cfg := testCfg()
	sys, hi, lo := twoClassStreams(t, cfg, qospolicy.None, 1, 1, 16, 16)
	sys.Warmup(50_000)
	sys.Run(100_000)
	m := sys.Metrics()
	got := m.BytesPerCycle(hi.ID) + m.BytesPerCycle(lo.ID)
	peak := cfg.PeakBytesPerCycle()
	if got < 0.8*peak || got > peak*1.001 {
		t.Fatalf("flood bandwidth %.2f B/cyc vs bus limit %.2f: outside [80%%, 100%%]", got, peak)
	}
}

// TestValidateMLPBandwidthLaw checks Little's law on the chaser: its
// bandwidth must equal outstanding x line / latency within tolerance.
func TestValidateMLPBandwidthLaw(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	const chains = 4
	if err := sys.Attach(0, c.ID, workload.NewChaser("v", tileRegion(0), chains, 5)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(50_000)
	sys.Run(200_000)
	m := sys.Metrics()
	lat := classOf(sys, c.ID).MissLatency
	predicted := chains * float64(mem.LineSize) / lat
	got := m.BytesPerCycle(c.ID)
	if got < 0.75*predicted || got > 1.25*predicted {
		t.Fatalf("chaser bandwidth %.2f vs Little's-law prediction %.2f (lat %.0f)", got, predicted, lat)
	}
}

// TestValidateDependentChainIPC checks IPC of an L1-resident dependent
// chain against Insts/L1HitLat.
func TestValidateDependentChainIPC(t *testing.T) {
	cfg := testCfg8()
	sys := buildOneTile(t, &loopGen{addrs: []mem.Addr{0x40, 0x80}}, qospolicy.None)
	sys.Run(50_000)
	got := classOf(sys, 0).IPC
	want := 1.0 / float64(cfg.L1HitLat) // 1 inst per op, one op per hit latency
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("dependent L1 chain IPC %.3f vs analytic %.3f", got, want)
	}
}
