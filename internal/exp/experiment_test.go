package exp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pabst/internal/config"
)

// TestExperimentRegistry: every ported experiment resolves by name, the
// listing is sorted, and unknown names produce a config.ErrInvalid
// naming the registry.
func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"ext-hetero", "ext-noc", "ext-skew", "ext-static",
		"faults", "fig1", "fig10", "fig11", "fig12", "fig7", "pareto",
	}
	for _, name := range want {
		e, err := ExperimentByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("%s resolved to %q", name, e.Name())
		}
		if e.Desc() == "" {
			t.Errorf("%s has no description", name)
		}
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name())
	}
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want sorted %v", got, want)
		}
	}
	if _, err := ExperimentByName("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	} else if !errors.Is(err, config.ErrInvalid) {
		t.Errorf("unknown experiment error %v, want config.ErrInvalid", err)
	}
}

// TestExperimentSpecsValid: every registered experiment emits a
// non-empty spec list at both built-in scales, each spec resolving.
func TestExperimentSpecsValid(t *testing.T) {
	for _, e := range Experiments() {
		for _, scale := range []string{"quick", "full"} {
			specs := e.Spec(scale)
			if len(specs) == 0 {
				t.Errorf("%s: no specs at %s", e.Name(), scale)
			}
			for i, rs := range specs {
				if _, _, err := (Exec{}).Resolve(rs); err != nil {
					t.Errorf("%s spec %d: %v", e.Name(), i, err)
				}
				if rs.Scale != scale {
					t.Errorf("%s spec %d carries scale %q, want %q", e.Name(), i, rs.Scale, scale)
				}
			}
		}
	}
}

// TestSpecValidateNewFields: the redesigned RunSpec rejects malformed
// values of the new fields.
func TestSpecValidateNewFields(t *testing.T) {
	base := RunSpec{Bench: BenchStreams, Scale: "quick"}
	for name, mut := range map[string]func(*RunSpec){
		"bad mode":          func(rs *RunSpec) { rs.Mode = "sideways" },
		"load too high":     func(rs *RunSpec) { rs.Load = 17 },
		"load negative":     func(rs *RunSpec) { rs.Load = -1 },
		"spurious workload": func(rs *RunSpec) { rs.Workload = "mcf" },
		"bad fault":         func(rs *RunSpec) { rs.Fault = "not-a-plan" },
		"bad policy":        func(rs *RunSpec) { rs.Policy = "nope+nada" },
	} {
		rs := base
		mut(&rs)
		if _, _, err := (Exec{}).Resolve(rs); err == nil {
			t.Errorf("%s: accepted %+v", name, rs)
		}
	}
	if _, _, err := (Exec{}).Resolve(RunSpec{Bench: BenchSpecIso, Scale: "quick"}); err == nil {
		t.Error("workload bench accepted without a workload")
	}
	if _, _, err := (Exec{}).Resolve(base); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

// TestSpecFingerprintNewFieldsAppendOnly: zero-valued new fields leave
// the historical fingerprint untouched; set fields change it.
func TestSpecFingerprintNewFieldsAppendOnly(t *testing.T) {
	base := RunSpec{Bench: BenchStreams, Scale: "quick"}
	fp := base.Fingerprint()
	for name, mut := range map[string]func(*RunSpec){
		"mode":     func(rs *RunSpec) { rs.Mode = "pabst" },
		"load":     func(rs *RunSpec) { rs.Load = 8 },
		"fault":    func(rs *RunSpec) { rs.Fault = "sat-drop" },
		"workload": func(rs *RunSpec) { rs.Workload = "mcf" },
	} {
		rs := base
		mut(&rs)
		if rs.Fingerprint() == fp {
			t.Errorf("setting %s did not change the fingerprint", name)
		}
	}
}

// TestExperimentSharedCacheDedup: fig10 and fig12 emit the same specs,
// so a shared cache runs the grid once; and re-running an experiment
// against a warm cache performs no new simulations.
func TestExperimentSharedCacheDedup(t *testing.T) {
	fig10, _ := ExperimentByName("fig10")
	fig12, _ := ExperimentByName("fig12")
	fps := func(specs []RunSpec) map[string]bool {
		m := map[string]bool{}
		for _, rs := range specs {
			m[rs.Fingerprint()] = true
		}
		return m
	}
	a, b := fps(fig10.Spec("quick")), fps(fig12.Spec("quick"))
	if len(a) != len(b) {
		t.Fatalf("fig10 has %d unique specs, fig12 %d", len(a), len(b))
	}
	for fp := range a {
		if !b[fp] {
			t.Fatalf("fig10 spec %s missing from fig12", fp)
		}
	}

	// Live dedup on the cheapest experiment: one spec, the warmed 7:3
	// stream machine, run twice.
	sc := tinyGoldenScale()
	sc.Parallel = 1
	e := repeatExperiment{k: 1}
	cache := NewRunCache()
	_, _, r1, err := RunExperimentScale(context.Background(), e, sc, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d results after first run, want 1", cache.Len())
	}
	_, _, r2, err := RunExperimentScale(context.Background(), e, sc, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache grew to %d on a warm re-run", cache.Len())
	}
	if r1[0].Fingerprint != r2[0].Fingerprint {
		t.Fatal("cached re-run returned a different result")
	}
}

// repeatExperiment asks for the same spec k times.
type repeatExperiment struct{ k int }

func (repeatExperiment) Name() string { return "repeat" }
func (repeatExperiment) Desc() string { return "one spec, k times" }
func (e repeatExperiment) Spec(scale string) []RunSpec {
	specs := make([]RunSpec, e.k)
	for i := range specs {
		specs[i] = RunSpec{Bench: BenchStreams, Scale: scale}
	}
	return specs
}
func (repeatExperiment) Reduce([]RunSpec, []RunResult) (*Table, error) { return &Table{}, nil }

// TestRunExperimentRunsEachFingerprintOnce: equal specs dispatched
// together simulate once at any pool size, cache or no cache, and every
// index receives that one RunResult. Every simulation allocates its own
// Shares, so one backing array across the indices is one simulation;
// with a cache, no spec is answered from it either, since grouping
// leaves nothing to ask twice.
func TestRunExperimentRunsEachFingerprintOnce(t *testing.T) {
	const k = 8
	for _, parallel := range []int{1, 2, 8} {
		for _, cache := range []*RunCache{NewRunCache(), nil} {
			sc := tinyScale()
			sc.Parallel = parallel
			_, _, results, err := RunExperimentScale(context.Background(), repeatExperiment{k}, sc, cache)
			if err != nil {
				t.Fatal(err)
			}
			if cache.Hits() != 0 {
				t.Errorf("parallel=%d: %d specs answered from the cache, want 0", parallel, cache.Hits())
			}
			if cache != nil && cache.Len() != 1 {
				t.Errorf("parallel=%d: cache holds %d results, want 1", parallel, cache.Len())
			}
			for i := range results {
				// Same backing array, not merely equal numbers: the one
				// result was handed out, not recomputed.
				if results[i].Fingerprint == "" || &results[i].Shares[0] != &results[0].Shares[0] {
					t.Errorf("parallel=%d cache=%v: index %d did not receive the shared result", parallel, cache != nil, i)
				}
			}
		}
	}
}

// TestRunSpecRunResultCache: under an Exec with a result cache, two
// workers that ask again for fingerprints already completed get the
// identical RunResult without a machine: every answer a hit, nothing new
// stored. A failed, cancelled or partial run stores nothing, and an Exec
// with nil Results always simulates (its runs check their context, which
// only a machine's RunContext does).
func TestRunSpecRunResultCache(t *testing.T) {
	ctx := context.Background()
	specs := []RunSpec{{Bench: BenchStreams, Scale: "tiny"}, {Bench: BenchChaser, Scale: "tiny"}}
	ex := tinyExec()
	ex.Results = NewRunCache()

	first := make([]RunResult, len(specs))
	if err := ForEach(ctx, 2, len(specs), func(i int) (err error) {
		first[i], err = specs[i].Run(ctx, ex, RunIO{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ex.Results.Len() != 2 || ex.Results.Hits() != 0 {
		t.Fatalf("first round: cache holds %d with %d hits; want 2, 0", ex.Results.Len(), ex.Results.Hits())
	}

	again := make([]RunResult, 4)
	if err := ForEach(ctx, 2, len(again), func(k int) (err error) {
		again[k], err = specs[k%len(specs)].Run(ctx, ex, RunIO{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ex.Results.Len() != 2 {
		t.Fatalf("cached round built machines: cache holds %d results, want 2", ex.Results.Len())
	}
	if ex.Results.Hits() != 4 {
		t.Fatalf("cache counted %d hits, want 4", ex.Results.Hits())
	}
	for k, r := range again {
		if !reflect.DeepEqual(r, first[k%len(specs)]) {
			t.Fatalf("cached answer %d differs from the run that stored it:\n%+v\nwant %+v", k, r, first[k%len(specs)])
		}
	}

	// Runs that do not complete their measure window store nothing.
	fresh := RunSpec{Bench: BenchStreams, Scale: "tiny", Params: map[string]uint64{"slack": 64}}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fresh.Run(cancelled, ex, RunIO{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	r, err := fresh.Run(cutAt(partialRunCut), ex, RunIO{})
	if !errors.Is(err, context.Canceled) || r.Cycles == 0 || r.Cycles >= tinyScale().Measure {
		t.Fatalf("partial run: %v after %d cycles", err, r.Cycles)
	}
	// A plan lagging a heartbeat by 3 000 cycles resolves at the
	// paper epoch and is refused by the build at the tiny 2 000.
	failing := fresh
	failing.Fault = "sat-delay"
	if _, err := failing.Run(ctx, ex, RunIO{}); err == nil {
		t.Fatal("a sat-delay run at a 2 000-cycle epoch succeeded")
	}
	if ex.Results.Len() != 2 {
		t.Fatalf("cache holds %d results after failed runs, want 2", ex.Results.Len())
	}

	// nil Results simulates every time.
	ex.Results = nil
	for i := 0; i < 2; i++ {
		counted := cutAt(0)
		r, err := specs[0].Run(counted, ex, RunIO{})
		if err != nil || r.Fingerprint != first[0].Fingerprint || counted.calls.Load() == 0 {
			t.Fatalf("uncached run %d: %v, fingerprint %s want %s, %d context checks", i, err, r.Fingerprint, first[0].Fingerprint, counted.calls.Load())
		}
	}
}
