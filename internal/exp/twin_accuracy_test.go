package exp

import "testing"

// TestTwinAccuracyRegulationPoints: the analytical twin's share
// predictions track the cycle simulator across the Figure 1 grid and
// the Figure 5 steady state at quick scale, within the declared
// tolerance. This is the in-tree slice of `make bench-twin` (which adds
// the 12-point Pareto grid).
func TestTwinAccuracyRegulationPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("five quick-scale simulations")
	}
	// The fig1 grid and the fig5 machine, through the claim tests' cache:
	// TestFig1Shapes and TestFig7PABSTTracksBest simulate the same specs.
	ex, _ := execFor(Quick())
	_, specs, sims := runQuick(t, registered(t, "fig1"))
	_, s5, r5 := runQuick(t, registered(t, "fig5"))
	specs, sims = append(specs, s5...), append(sims, r5...)

	var mean float64
	for i, rs := range specs {
		pred, err := PredictSpec(rs, ex)
		if err != nil {
			t.Fatal(err)
		}
		e := abs(pred.ShareHi - sims[i].ShareHi)
		mean += e
		t.Logf("%s mode=%q: sim share %.3f, twin %.3f (|err| %.3f, conf %.2f)",
			rs.Bench, rs.Mode, sims[i].ShareHi, pred.ShareHi, e, pred.Confidence)
		if !pred.Converged {
			t.Errorf("%s mode=%q: twin fixed point did not converge", rs.Bench, rs.Mode)
		}
	}
	mean /= float64(len(specs))
	if mean > TwinShareTol {
		t.Fatalf("mean twin share error %.4f exceeds tolerance %.2f", mean, TwinShareTol)
	}
}

// TestPredictSpecPolicyResolution: the twin resolves policies through
// the same mode -> scale -> spec layering the simulator uses, and
// refuses benches it has no load model for.
func TestPredictSpecPolicyResolution(t *testing.T) {
	ex := Exec{}
	// Feedback pair predicts entitlement exactly on the saturated mix.
	p, err := PredictSpec(RunSpec{Bench: BenchWStreams, Scale: "quick", Policy: "pabst+pabst", Load: 16}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if abs(p.ShareHi-0.7) > 1e-6 {
		t.Errorf("pabst+pabst at load 16 predicted %.4f, want the 0.7 entitlement", p.ShareHi)
	}
	if p.Confidence <= 0 {
		t.Errorf("hooked policy pair predicted with confidence %.2f", p.Confidence)
	}
	// A bench without a load model is a terminal refusal.
	if _, err := PredictSpec(RunSpec{Bench: BenchSkew, Scale: "quick"}, ex); err == nil {
		t.Error("skew bench accepted by the twin despite having no load model")
	}
	// Unregulated demand split on a symmetric mode-none machine.
	p, err = PredictSpec(RunSpec{Bench: BenchStreams, Scale: "quick", Mode: "none"}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if abs(p.ShareHi-0.5) > 0.02 {
		t.Errorf("mode none predicted share %.3f, want the ~0.5 demand split", p.ShareHi)
	}
}
