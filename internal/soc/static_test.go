package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

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
