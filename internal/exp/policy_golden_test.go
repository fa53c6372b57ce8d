package exp

import (
	"context"
	"testing"

	"pabst"
	"pabst/internal/qospolicy"
)

// The policy-plugin refactor's core acceptance criterion: routing every
// regulation mode through the qospolicy registry must be invisible. The
// fingerprints below were captured on the pre-plugin mode switches
// (direct governor/arbiter construction in internal/soc) on the tiny
// 3:1 stream machine and the tiny RunSpec benches; the registry-built
// systems must reproduce them bit for bit, on the reference loop and on
// the default event kernel alike. If a fingerprint here changes, the
// plugin seam — or the kernel — leaked into simulated behavior; that is
// a bug, not a baseline bump. They were re-captured on the same
// registry-built systems twice, for model changes rather than wiring
// ones: when a miss refused for want of an MSHR stopped allocating its
// frames, and when the front door's round-robin pointer stopped moving
// on refused reservations.

// tinyGoldenScale is the capture machine: small enough to run in tests,
// long enough for the governor to act.
func tinyGoldenScale() Scale {
	return Scale{Name: "tiny", Warmup: 40_000, Measure: 60_000, Epoch: 2000, Window: 2000}
}

// goldenModeFPs maps each legacy mode to its pre-refactor result
// fingerprint on the tiny 3:1 stream machine.
var goldenModeFPs = map[string]string{
	"none":          "c372623ded7f3bd37cb9f71fd5dacf214ce4b8d61a83239bca1125e815dff786",
	"source-only":   "7579bc7c2b4edc0aed39185f7f6f12aad088b269c797c3944d5337ffe5cedd72",
	"target-only":   "b1cdaa1820d9e62eedd9922952056f401b45fd8333b8dbc5ef0db9df6e050534",
	"pabst":         "62994cfa3552acf5c7a19cca3d54695754f11449aaa5f8cf9c51cde89e04e1db",
	"static-source": "9746c91c76f048fec96794f5798add03fbb70d349e479851435bead8cd442772",
}

// goldenBenchFPs pins the RunSpec path (config → spec → registry) on the
// same scale.
var goldenBenchFPs = map[string]string{
	BenchStreams: "cd32af4155e32ab698d6e9b16b4e66ae74ee0944c74088080cf4b14e6e89d862",
	BenchChaser:  "7e9bac45452dedada9766bda679027fe66f6cc051e668cf3c4c527a3bb242788",
}

// kernels is the axis the golden and matrix tests sweep — the oracle and
// the default; both must agree.
var kernels = []string{"cycle", ""}

func tinyModeFP(sc Scale, mode pabst.Mode) (string, error) {
	cfg := sc.Apply(pabst.Default32Config())
	b := pabst.NewBuilder(cfg, mode, sc.Options()...)
	hi := b.AddClass("hi", 3, cfg.L3Ways/2)
	lo := b.AddClass("lo", 1, cfg.L3Ways/2)
	attachStreams(b, hi, 0, 16, true)
	attachStreams(b, lo, 16, 32, true)
	sys, err := b.Build()
	if err != nil {
		return "", err
	}
	defer sys.Close()
	sys.Warmup(sc.Warmup)
	sys.Run(sc.Measure)
	return resultFingerprint(sys.Snapshot(), []pabst.ClassID{hi, lo}), nil
}

// TestPolicyGoldenModes proves the registry-built regulators are
// bit-identical to the pre-plugin wiring for every legacy mode, on both
// kernels — and that a preset is one simulation however it is named:
// the preset value handed to NewBuilder, its legacy name in
// RunSpec.Mode, and its pair spelled out in RunSpec.Policy
// (BenchWStreams31 is the machine tinyModeFP builds by hand).
func TestPolicyGoldenModes(t *testing.T) {
	ex := Exec{Scales: map[string]Scale{"tiny": tinyGoldenScale()}}
	for _, mode := range qospolicy.Presets() {
		mode := mode
		want, ok := goldenModeFPs[mode.String()]
		if !ok {
			t.Fatalf("no golden fingerprint for mode %s", mode)
		}
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for _, kernel := range kernels {
				sc := tinyGoldenScale()
				sc.Kernel = kernel
				fp, err := tinyModeFP(sc, mode)
				if err != nil {
					t.Fatal(err)
				}
				if fp != want {
					t.Errorf("kernel=%q: fingerprint %s, want pre-refactor %s", kernel, fp, want)
				}
			}
			for _, rs := range []RunSpec{
				{Bench: BenchWStreams31, Scale: "tiny", Mode: mode.String()},
				{Bench: BenchWStreams31, Scale: "tiny", Policy: mode.Source + "+" + mode.Target},
			} {
				r, err := rs.Run(context.Background(), ex, RunIO{})
				if err != nil {
					t.Fatal(err)
				}
				if r.Fingerprint != want {
					t.Errorf("spec mode=%q policy=%q: fingerprint %s, want pre-refactor %s", rs.Mode, rs.Policy, r.Fingerprint, want)
				}
			}
		})
	}
}

// TestPolicyGoldenSpecs pins the RunSpec execution path (the unit
// pabstsim and the serve control plane share) to its pre-refactor
// fingerprints, and checks an explicit Policy naming the mode's own
// pair changes nothing but the spec identity.
func TestPolicyGoldenSpecs(t *testing.T) {
	ex := Exec{Scales: map[string]Scale{"tiny": tinyGoldenScale()}}
	for bench, want := range goldenBenchFPs {
		r, err := RunSpec{Bench: bench, Scale: "tiny"}.Run(context.Background(), ex, RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Fingerprint != want {
			t.Errorf("%s: fingerprint %s, want pre-refactor %s", bench, r.Fingerprint, want)
		}
		// The benches run ModePABST; naming pabst+pabst explicitly must
		// reproduce the same simulation.
		rp, err := RunSpec{Bench: bench, Scale: "tiny", Policy: "pabst+pabst"}.Run(context.Background(), ex, RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		if rp.Fingerprint != want {
			t.Errorf("%s policy=pabst+pabst: fingerprint %s, want %s", bench, rp.Fingerprint, want)
		}
	}
}

// TestPolicyMatrix runs every registered source×target pair on a
// fig1-style machine and demands the same fingerprint from both kernels
// — the determinism contract of the policy registry, enforced for
// present and future mechanisms alike.
func TestPolicyMatrix(t *testing.T) {
	base := Scale{Name: "tiny", Warmup: 20_000, Measure: 30_000, Epoch: 2000, Window: 2000}
	for _, src := range pabst.SourcePolicies() {
		for _, tgt := range pabst.TargetPolicies() {
			src, tgt := src, tgt
			t.Run(src+"+"+tgt, func(t *testing.T) {
				t.Parallel()
				want := ""
				for _, kernel := range kernels {
					sc := base
					sc.Kernel = kernel
					sc.Policy = pabst.Mode{Source: src, Target: tgt}
					fp, err := tinyModeFP(sc, pabst.ModePABST)
					if err != nil {
						t.Fatal(err)
					}
					if want == "" {
						want = fp
						continue
					}
					if fp != want {
						t.Errorf("kernel=%q: fingerprint %s diverged from the reference loop's %s", kernel, fp, want)
					}
				}
			})
		}
	}
}

// TestPolicyPoint sanity-checks one Pareto harness cell end to end:
// PABST at the contended load must deliver the 7:3 split and a bounded
// hi-class tail. The tail order is a steady-state property, so the cell
// runs at Quick(): after tinyGoldenScale's 100k cycles the two p99s are
// one histogram bucket apart (864 hi, 832 lo); at Quick() 928 and 992.
func TestPolicyPoint(t *testing.T) {
	rs := RunSpec{Bench: BenchWStreams, Scale: "quick", Policy: "pabst+pabst", Load: 16}
	r, err := rs.Run(context.Background(), Exec{}, RunIO{})
	if err != nil {
		t.Fatal(err)
	}
	points, err := ParetoFromRuns([]RunSpec{rs}, []RunResult{r})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.ShareErr > 10 {
		t.Errorf("pabst+pabst load=16: share error %.1f%% (share %.3f), want <10%%", p.ShareErr, p.ShareHi)
	}
	if p.P99Hi == 0 {
		t.Error("pabst+pabst load=16: zero hi-class p99 latency — histogram not wired")
	}
	if p.P99Lo < p.P99Hi {
		t.Errorf("pabst+pabst load=16: lo-class p99 %d < hi-class p99 %d — prioritization inverted", p.P99Lo, p.P99Hi)
	}
}

// TestPolicyParetoFrontier checks the frontier marking on a synthetic
// point set: dominated points must be excluded, ties and trade-offs
// kept, per load group.
func TestPolicyParetoFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{Load: 4, ShareErr: 1, P99Hi: 100},   // dominates the next point
		{Load: 4, ShareErr: 2, P99Hi: 200},   // dominated
		{Load: 4, ShareErr: 0.5, P99Hi: 300}, // trade-off: stays
		{Load: 8, ShareErr: 2, P99Hi: 200},   // other load group: stays
	}
	markFrontier(pts)
	want := []bool{true, false, true, true}
	for i, p := range pts {
		if p.Frontier != want[i] {
			t.Errorf("point %d (load=%d err=%.1f p99=%d): frontier=%v, want %v",
				i, p.Load, p.ShareErr, p.P99Hi, p.Frontier, want[i])
		}
	}
}

// TestPolicySpecFingerprintCompat pins the spec-identity rule: a spec
// with no policy override must keep its historical fingerprint key
// (serve journals and checkpoint stores survive the upgrade), while a
// policy override must produce a distinct key.
func TestPolicySpecFingerprintCompat(t *testing.T) {
	plain := RunSpec{Bench: BenchStreams, Scale: "quick"}
	if fp := plain.Fingerprint(); fp != (RunSpec{Bench: BenchStreams, Scale: "quick", Policy: ""}).Fingerprint() {
		t.Fatalf("empty policy changed spec fingerprint: %s", fp)
	}
	withPolicy := RunSpec{Bench: BenchStreams, Scale: "quick", Policy: "bankreg+dpq"}
	if plain.Fingerprint() == withPolicy.Fingerprint() {
		t.Error("policy override did not change the spec fingerprint — sweep dedup would collide")
	}
	for _, bad := range []string{"bankreg", "nope+fcfs", "pabst+nope"} {
		spec := RunSpec{Bench: BenchStreams, Scale: "quick", Policy: bad}
		if _, _, err := (Exec{}).Resolve(spec); err == nil {
			t.Errorf("Resolve accepted bad policy %q", bad)
		}
	}
}
