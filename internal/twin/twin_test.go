package twin

import (
	"math"
	"testing"

	"pabst/internal/config"
	"pabst/internal/qospolicy"
)

func streams(weightHi, weightLo, tiles int) []ClassLoad {
	return []ClassLoad{
		{Name: "hi", Weight: weightHi, Tiles: tiles, MLP: 8, WriteFactor: 2, Duty: 1},
		{Name: "lo", Weight: weightLo, Tiles: tiles, MLP: 8, WriteFactor: 2, Duty: 1},
	}
}

// TestSolveConverges: the fixed point must converge for every
// registered policy pair on a saturating two-class load, and the
// resulting shares must be a distribution.
func TestSolveConverges(t *testing.T) {
	m := New(config.Default32())
	for _, pair := range [][2]string{
		{"pabst", "pabst"}, {"pabst", "fcfs"}, {"none", "pabst"},
		{"none", "fcfs"}, {"bankreg", "fcfs"}, {"lmsar", "fcfs"},
		{"none", "dpq"}, {"static", "fcfs"},
	} {
		p, err := m.Solve(pair[0], pair[1], streams(7, 3, 16))
		if err != nil {
			t.Fatalf("%s+%s: %v", pair[0], pair[1], err)
		}
		if !p.Converged {
			t.Errorf("%s+%s: fixed point did not converge in %d iterations", pair[0], pair[1], p.Iterations)
		}
		sum := p.Shares[0] + p.Shares[1]
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s+%s: shares sum to %f, want 1", pair[0], pair[1], sum)
		}
		if p.Util <= 0 || p.Util > 1 {
			t.Errorf("%s+%s: utilization %f out of range", pair[0], pair[1], p.Util)
		}
		if p.P99Lat[0] < p.MeanLat[0] {
			t.Errorf("%s+%s: p99 %f below mean %f", pair[0], pair[1], p.P99Lat[0], p.MeanLat[0])
		}
	}
}

// TestSolveFeedbackHoldsEntitlement: the Eq.5 feedback pair must predict
// the entitled split exactly under symmetric saturating demand, at any
// weight ratio.
func TestSolveFeedbackHoldsEntitlement(t *testing.T) {
	m := New(config.Default32())
	for _, w := range [][2]int{{7, 3}, {3, 1}, {1, 1}} {
		p, err := m.Solve("pabst", "pabst", streams(w[0], w[1], 16))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(w[0]) / float64(w[0]+w[1])
		if math.Abs(p.Shares[0]-want) > 1e-6 {
			t.Errorf("weights %d:%d: predicted share %f, want entitled %f", w[0], w[1], p.Shares[0], want)
		}
	}
}

// TestSolveDegenerateSingleClass: one saturating class takes the whole
// delivered bandwidth; its share is 1 and utilization sits at the
// policy's cap.
func TestSolveDegenerateSingleClass(t *testing.T) {
	m := New(config.Default32())
	p, err := m.Solve("pabst", "pabst", []ClassLoad{
		{Name: "only", Weight: 5, Tiles: 32, MLP: 8, WriteFactor: 2, Duty: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Converged {
		t.Fatal("single-class fixed point did not converge")
	}
	if math.Abs(p.Shares[0]-1) > 1e-9 {
		t.Errorf("single class share %f, want 1", p.Shares[0])
	}
	if math.Abs(p.Util-0.84) > 0.02 {
		t.Errorf("saturated single-class util %f, want ≈0.84 (pabst source cap)", p.Util)
	}
}

// TestSolveZeroLoad: zero offered demand yields zero rates and
// utilization, uncontended latency, and still converges.
func TestSolveZeroLoad(t *testing.T) {
	m := New(config.Default32())
	p, err := m.Solve("pabst", "pabst", []ClassLoad{
		{Name: "idle-a", Weight: 1, Tiles: 0, MLP: 0, WriteFactor: 1, Duty: 1},
		{Name: "idle-b", Weight: 1, Tiles: 0, MLP: 0, WriteFactor: 1, Duty: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Converged {
		t.Error("zero-load fixed point did not converge")
	}
	if p.Util != 0 || p.TotalBPC != 0 {
		t.Errorf("zero load predicted util %f bpc %f, want 0", p.Util, p.TotalBPC)
	}
	if p.MeanLat[0] <= 0 {
		t.Errorf("zero-load mean latency %f, want the uncontended base", p.MeanLat[0])
	}
}

// TestSolveLightLoadIsDemandSplit: below saturation every class runs at
// its demand regardless of weights, and confidence reflects the regime.
func TestSolveLightLoadIsDemandSplit(t *testing.T) {
	m := New(config.Default32())
	light := []ClassLoad{
		{Name: "a", Weight: 7, Tiles: 1, MLP: 1, WriteFactor: 1, Duty: 1},
		{Name: "b", Weight: 3, Tiles: 1, MLP: 1, WriteFactor: 1, Duty: 1},
	}
	p, err := m.Solve("pabst", "pabst", light)
	if err != nil {
		t.Fatal(err)
	}
	if p.Overload >= 1 {
		t.Fatalf("light load classified as overloaded (%f)", p.Overload)
	}
	if math.Abs(p.Shares[0]-0.5) > 1e-6 {
		t.Errorf("uncontended symmetric demand split %f, want 0.5", p.Shares[0])
	}
}

// TestSolveErrors: unknown policies are errors; a registered policy with
// no calibration entry is not (it degrades to zero confidence instead).
func TestSolveErrors(t *testing.T) {
	m := New(config.Default32())
	if _, err := m.Solve("nope", "fcfs", streams(1, 1, 4)); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := m.Solve("pabst", "nope", streams(1, 1, 4)); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := m.Solve("pabst", "pabst", nil); err == nil {
		t.Error("empty class list accepted")
	}
}

// TestCalibrationNamesRegisteredPolicies: every calibration entry is
// keyed by a registered mechanism, so a renamed policy cannot leave its
// entry behind and fall back to zero confidence unnoticed.
func TestCalibrationNamesRegisteredPolicies(t *testing.T) {
	for name := range sourceCalibration {
		if !qospolicy.ValidSource(name) {
			t.Errorf("source calibration %q names no registered source policy", name)
		}
	}
	for name := range targetCalibration {
		if !qospolicy.ValidTarget(name) {
			t.Errorf("target calibration %q names no registered target policy", name)
		}
	}
}
