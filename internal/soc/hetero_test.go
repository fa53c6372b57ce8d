package soc

import (
	"testing"

	"pabst/internal/qospolicy"
)

func TestHeterogeneousThreadsKeepClassProportions(t *testing.T) {
	// With demand feedback on and both classes fully busy (the uniform
	// case), inter-class proportionality must be unchanged.
	cfg := testCfg()
	cfg.PABST.HeterogeneousThreads = true
	sys, hi, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
	sys.Warmup(150_000)
	sys.Run(150_000)
	if sh := sys.Metrics().ShareOf(hi.ID); sh < 0.62 || sh > 0.78 {
		t.Fatalf("hetero mode broke inter-class proportions: hi share %.2f", sh)
	}
}

func TestHeteroPerMCConflictRejected(t *testing.T) {
	cfg := testCfg()
	cfg.PABST.HeterogeneousThreads = true
	cfg.PABST.PerMCGovernors = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("hetero + per-MC accepted")
	}
}
