package soc

import (
	"math"
	"testing"

	"pabst/internal/qospolicy"
)

// TestProportionalAllocationAcrossRatios sweeps the Eq. 5 claim across a
// range of share ratios: two fully backlogged stream classes must split
// delivered bandwidth in weight proportion, whatever the weights.
func TestProportionalAllocationAcrossRatios(t *testing.T) {
	ratios := []struct {
		wHi, wLo uint64
	}{
		{1, 1},
		{2, 1},
		{3, 1},
		{7, 3},
		{15, 1},
	}
	for _, r := range ratios {
		sys, hi, _ := twoClassStreams(t, testCfg(), qospolicy.PABST, r.wHi, r.wLo, 16, 16)
		sys.Warmup(150_000)
		sys.Run(150_000)
		want := float64(r.wHi) / float64(r.wHi+r.wLo)
		got := sys.Metrics().ShareOf(hi.ID)
		// Extreme ratios leave the low class with a tiny absolute rate,
		// so allow a slightly wider band there.
		tol := 0.06
		if want > 0.9 {
			tol = 0.09
		}
		if math.Abs(got-want) > tol {
			t.Errorf("weights %d:%d -> share %.3f, want %.3f +/- %.2f", r.wHi, r.wLo, got, want, tol)
		}
	}
}
