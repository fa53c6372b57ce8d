package soc

import (
	"math"
	"testing"

	"pabst/internal/qospolicy"
)

// TestModeledNoCMatchesLatencyOnlyWhenProvisioned validates the paper's
// methodology assumption: with realistically provisioned links, running
// the full contention-modeled fabric changes neither the proportional
// allocation nor (much) the delivered bandwidth versus the latency-only
// model.
func TestModeledNoCMatchesLatencyOnlyWhenProvisioned(t *testing.T) {
	run := func(model bool) (share float64, total float64) {
		cfg := testCfg()
		cfg.ModelNoC = model
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
		sys.Warmup(150_000)
		sys.Run(150_000)
		m := sys.Metrics()
		return m.ShareOf(hi.ID), m.BytesPerCycle(hi.ID) + m.BytesPerCycle(lo.ID)
	}
	shareL, totalL := run(false)
	shareN, totalN := run(true)

	if math.Abs(shareN-0.7) > 0.07 {
		t.Fatalf("modeled NoC broke the 7:3 allocation: share %.2f", shareN)
	}
	if math.Abs(shareN-shareL) > 0.05 {
		t.Fatalf("allocation differs between fabric models: %.2f vs %.2f", shareL, shareN)
	}
	// Throughput should be within ~15% of the latency-only model when
	// links are provisioned (16 B/cyc/link, 4 channels x 9.1 B/cyc
	// demand spread over the mesh).
	if totalN < 0.85*totalL {
		t.Fatalf("provisioned fabric lost too much throughput: %.1f vs %.1f B/cyc", totalN, totalL)
	}
}

// TestStarvedNoCBecomesTheBottleneck shows the flip side: with crippled
// links the fabric, not the DRAM, limits bandwidth.
func TestStarvedNoCBecomesTheBottleneck(t *testing.T) {
	run := func(dataFlits int) float64 {
		cfg := testCfg()
		cfg.ModelNoC = true
		cfg.NoCNet.DataFlits = dataFlits
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 1, 1, 16, 16)
		sys.Warmup(100_000)
		sys.Run(100_000)
		m := sys.Metrics()
		return m.BytesPerCycle(hi.ID) + m.BytesPerCycle(lo.ID)
	}
	provisioned := run(4)
	starved := run(64) // 1 B/cyc links
	if starved > 0.5*provisioned {
		t.Fatalf("16x slower links should cut throughput sharply: %.1f vs %.1f B/cyc",
			starved, provisioned)
	}
}

// TestModeledNoCDeterministic pins determinism of the router fabric.
func TestModeledNoCDeterministic(t *testing.T) {
	run := func() Metrics {
		cfg := testCfg()
		cfg.ModelNoC = true
		sys, _, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		sys.Run(60_000)
		return sys.Metrics()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("modeled-NoC runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestModeledNoCAcrossKernels pins the fabric under both kernels: router
// state is per-router (injection failures, in-flight counts) and the
// fabric exposes its own next-event time, so the modeled NoC does not
// diverge under the event kernel.
func TestModeledNoCAcrossKernels(t *testing.T) {
	run := func(kernel string) string {
		cfg := testCfg()
		cfg.ModelNoC = true
		cfg.Kernel = kernel
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		sys.Run(60_000)
		if lw := sys.Snapshot().LateWakes; lw != 0 {
			t.Fatalf("%d late wakes (kernel=%s)", lw, kernel)
		}
		return fingerprint(sys, hi.ID, lo.ID)
	}
	if want, got := run("cycle"), run("event"); got != want {
		t.Errorf("event kernel diverged on the modeled NoC:\n--- cycle\n%s--- event\n%s", want, got)
	}
}
