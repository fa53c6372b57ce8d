package exp

import (
	"context"
	"testing"
)

func TestExtStaticShowsWorkConservationGain(t *testing.T) {
	// The gain is the converged idle-phase grab, so the run warms up one
	// full period and measures the next: each phase (200k cycles, 100
	// epochs) then revisits a cached region the L3 already holds. At
	// Quick() the window's cached phase is the first one, a paced refill
	// of that region from memory, and PABST ends below the static
	// limiter (EXPERIMENTS.md, Extensions).
	sc := Quick()
	sc.Warmup, sc.Measure = 400_000, 400_000
	tbl, _, _, err := RunExperimentScale(context.Background(), registered(t, "ext-static"), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The static limiter pins the constant class at ~30% of peak.
	if frac := cell(t, tbl, "static limiter", "frac-of-peak"); frac < 0.2 || frac > 0.42 {
		t.Fatalf("static limiter pinned the class at %.2f of peak, want ~0.30", frac)
	}
	// PABST's time average must be clearly higher (half the time the
	// other class is idle).
	static, pb := cell(t, tbl, "static limiter", "B/cyc"), cell(t, tbl, "PABST", "B/cyc")
	if pb < 1.2*static {
		t.Fatalf("PABST %.1f vs static %.1f B/cyc: too little work-conservation gain", pb, static)
	}
}

func TestExtSkewLiftsColdChannels(t *testing.T) {
	tbl, _, _ := runQuick(t, registered(t, "ext-skew"))
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 channels, got %d", len(tbl.Rows))
	}
	var coldG, coldP float64
	for _, r := range tbl.Rows[1:] {
		coldG += r.Values["global-SAT"]
		coldP += r.Values["per-MC-SAT"]
	}
	if coldP < coldG+0.2 {
		t.Fatalf("per-MC governors lifted cold channels only %.2f -> %.2f (sum)", coldG, coldP)
	}
}

func TestExtHeteroLiftsBusyThread(t *testing.T) {
	tbl, _, _ := runQuick(t, registered(t, "ext-hetero"))
	even := cell(t, tbl, "even split (paper baseline)", "class-B/cyc")
	hetero := cell(t, tbl, "demand feedback (Section V-B)", "class-B/cyc")
	if hetero < 2*even {
		t.Fatalf("demand feedback lifted the class only %.1f -> %.1f B/cyc", even, hetero)
	}
}
