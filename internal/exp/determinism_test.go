package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"pabst"
)

// tinyScale keeps the determinism matrix fast: the assertion is
// byte-identity across kernels, which a short run checks just as
// rigorously as a long one.
func tinyScale() Scale {
	return Scale{Name: "tiny", Warmup: 20_000, Measure: 30_000, Epoch: 2000, Window: 2000}
}

// render flattens any experiment result to comparable bytes.
func render(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runRendered runs an experiment for real (no cache) and flattens its
// results and table to comparable bytes.
func runRendered(e Experiment, s Scale) (string, error) {
	tbl, _, results, err := RunExperimentScale(context.Background(), e, s, nil)
	if err != nil {
		return "", err
	}
	return render(results) + tbl.String(), nil
}

// TestDeterminismMatrix asserts the kernel guarantee at the experiment
// level: for the fig1, fig5, and faults presets, the default event
// kernel produces byte-identical results to the cycle-stepped reference
// loop. The faults preset is held to the same standard — fault streams
// are sharded per sender, so an active plan draws identically whichever
// components the kernel visits.
func TestDeterminismMatrix(t *testing.T) {
	presets := []struct {
		name string
		run  func(s Scale) (string, error)
	}{
		{"fig1", func(s Scale) (string, error) { return runRendered(registered(t, "fig1"), s) }},
		{"fig5", func(s Scale) (string, error) {
			r, err := Fig5Series(s)
			if err != nil {
				return "", err
			}
			return render(r), nil
		}},
		{"faults", func(s Scale) (string, error) { return runRendered(NewFaultsExperiment("sat-drop"), s) }},
	}

	for _, p := range presets {
		p := p
		t.Run(p.name, func(t *testing.T) {
			oracle := tinyScale()
			oracle.Kernel = "cycle"
			want, err := p.run(oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.run(tinyScale())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("default kernel diverged from the reference loop\n--- cycle\n%s\n--- default\n%s", want, got)
			}
		})
	}
}

// TestPolicyKernelDeterminism pins the policy × kernel slice of the
// determinism matrix: every registered source policy must produce
// bit-identical outcomes under the event kernel. The issue-schedule
// seam (regulate.Source.NextIssueAt) covers the whole zoo — pacer-based
// static and lmsar, token-based bankreg, the pass-through for none —
// so no policy may degrade event dispatch into divergence, and no run
// may record a late wake (a wake targeting an already-drained class
// would mean the policy added a backward edge to the wake graph).
func TestPolicyKernelDeterminism(t *testing.T) {
	for _, src := range []string{"none", "static", "pabst", "bankreg", "lmsar"} {
		src := src
		t.Run(src, func(t *testing.T) {
			run := func(kernel string) string {
				sc := tinyScale()
				sc.Kernel = kernel
				sc.Policy.Source = src
				cfg := sc.Apply(pabst.Scaled8Config())
				b := pabst.NewBuilder(cfg, pabst.ModePABST, sc.Options()...)
				hi := b.AddClass("hi", 3, cfg.L3Ways/2)
				lo := b.AddClass("lo", 1, cfg.L3Ways/2)
				attachStreams(b, hi, 0, cfg.NumTiles()/2, true)
				attachStreams(b, lo, cfg.NumTiles()/2, cfg.NumTiles(), true)
				sys, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				sys.Warmup(sc.Warmup)
				sys.Run(sc.Measure)
				if lw := sys.Snapshot().LateWakes; lw != 0 {
					t.Errorf("source=%s kernel=%s: LateWakes = %d, want 0", src, kernel, lw)
				}
				return resultFingerprint(sys.Snapshot(), []pabst.ClassID{hi, lo})
			}
			want := run("cycle")
			if got := run("event"); got != want {
				t.Errorf("source policy %q: event kernel diverged from cycle kernel\n--- cycle\n%s\n--- event\n%s",
					src, want, got)
			}
		})
	}
}

// TestSweepParallelismIsInvisible asserts that running the fig7 grid's
// six independent simulations concurrently changes nothing about the
// rendered table — at explicit pool sizes and at the default (Parallel
// 0 = all cores) on 1, 2 and 4 cores — and the same for Figure 9's
// three machines.
func TestSweepParallelismIsInvisible(t *testing.T) {
	fig7 := func(parallel int) string {
		t.Helper()
		s := tinyScale()
		s.Parallel = parallel
		out, err := runRendered(registered(t, "fig7"), s)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out
	}
	want := fig7(1)
	for _, parallel := range []int{2, 6} {
		if got := fig7(parallel); got != want {
			t.Errorf("parallel=%d changed the fig7 table\n--- sequential\n%s\n--- parallel\n%s", parallel, want, got)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		setGOMAXPROCS(t, procs)
		if got := fig7(0); got != want {
			t.Errorf("parallel=0 on %d cores changed the fig7 table\n--- sequential\n%s\n--- parallel\n%s", procs, want, got)
		}
	}

	fig9 := func(parallel int) string {
		t.Helper()
		s := tinyScale()
		s.Parallel = parallel
		r, err := Fig9(s)
		if err != nil {
			t.Fatalf("fig9 parallel=%d: %v", parallel, err)
		}
		return r.Table().String()
	}
	if seq, par := fig9(1), fig9(3); par != seq {
		t.Errorf("parallel=3 changed the fig9 table\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}

// TestForEachOrderIndependence checks the helper directly: indexed writes
// land regardless of pool size, and the first error is reported.
func TestForEachOrderIndependence(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 16} {
		out := make([]int, 40)
		err := ForEach(context.Background(), parallel, len(out), func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d", parallel, i, v)
			}
		}
	}
	wantErr := fmt.Errorf("boom")
	err := ForEach(context.Background(), 4, 10, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("ForEach error = %v, want %v", err, wantErr)
	}
}
