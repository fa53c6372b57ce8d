package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// buildPeriodicMix builds the Figure 6 workload (periodic 70% class +
// constant 30% class) under the given mode.
func buildPeriodicMix(t *testing.T, mode qospolicy.Pair) (*System, *qos.Class, *qos.Class) {
	t.Helper()
	cfg := testCfg()
	reg := qos.NewRegistry()
	per := reg.MustAdd("periodic", 7, cfg.L3Ways/2)
	con := reg.MustAdd("constant", 3, cfg.L3Ways/2)
	sys, err := New(cfg, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		cached := workload.Region{Base: tileRegion(i).Base + (48 << 20), Size: 128 << 10}
		gen := workload.NewPeriodicStream("p", tileRegion(i), cached, 120_000, 120_000)
		if err := sys.Attach(i, per.ID, gen); err != nil {
			t.Fatal(err)
		}
	}
	for i := 16; i < 32; i++ {
		if err := sys.Attach(i, con.ID, workload.NewStream("c", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, per, con
}

// TestStaticLimiterIsNotWorkConserving contrasts the related-work static
// throttle with PABST: when the periodic class goes cache-resident, the
// static limiter keeps the constant class pinned at its 30% rate while
// PABST lets it absorb the idle bandwidth.
func TestStaticLimiterIsNotWorkConserving(t *testing.T) {
	run := func(mode qospolicy.Pair) float64 {
		sys, _, con := buildPeriodicMix(t, mode)
		// One full period of warmup, so every measured cached phase
		// revisits a region the L3 holds; the first one is a paced refill
		// from memory that takes more than half of it.
		sys.Warmup(240_000)
		sys.Run(480_000) // two full periods
		return sys.Metrics().BytesPerCycle(con.ID)
	}
	static := run(qospolicy.StaticSource)
	pabst := run(qospolicy.PABST)
	cfg := testCfg()
	peak := cfg.PeakBytesPerCycle()

	// The static limiter caps the constant class near 30% of peak at all
	// times.
	if static > 0.40*peak {
		t.Fatalf("static limiter leaked: constant class at %.1f of %.1f peak", static, peak)
	}
	// PABST's time-average is much higher because half the time the
	// periodic class is idle and its share is redistributed.
	if pabst < static*1.5 {
		t.Fatalf("work conservation gain too small: static %.1f vs pabst %.1f B/cyc", static, pabst)
	}
}

func TestStaticLimiterEnforcesShares(t *testing.T) {
	// Under constant full demand the static limiter does deliver the
	// proportional split (its only virtue).
	cfg := testCfg()
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", 7, cfg.L3Ways/2)
	lo := reg.MustAdd("lo", 3, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.StaticSource)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := sys.Attach(i, hi.ID, workload.NewStream("hi", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Attach(16+i, lo.ID, workload.NewStream("lo", tileRegion(16+i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Warmup(100_000)
	sys.Run(100_000)
	m := sys.Metrics()
	if sh := m.ShareOf(hi.ID); sh < 0.6 || sh > 0.8 {
		t.Fatalf("static split %.2f, want ~0.70", sh)
	}
}
