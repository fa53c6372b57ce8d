package exp

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sync/atomic"
	"testing"

	"pabst"
	"pabst/internal/config"
)

// tinyExec registers the tiny scale so specs resolve it by name.
func tinyExec() Exec {
	return Exec{Scales: map[string]Scale{"tiny": tinyScale()}}
}

// countCtx counts the Err calls a run makes and reports
// context.Canceled from the cut-th on (cut 0: never). Only a machine's
// RunContext asks, at every epoch boundary and every chunk, so the n-th
// call falls at a fixed cycle of a given spec's run, and a run answered
// from the cache makes none.
type countCtx struct {
	context.Context
	calls atomic.Int64
	cut   int64
}

func (c *countCtx) Err() error {
	if n := c.calls.Add(1); c.cut > 0 && n >= c.cut {
		return context.Canceled
	}
	return c.Context.Err()
}

func cutAt(n int64) *countCtx { return &countCtx{Context: context.Background(), cut: n} }

// The tiny warmup's 32 chunks ask 48 times at a 1000-cycle epoch and
// 40 times at its own 2000, so cancelRerunCut falls a third of the way
// into a 1000-cycle-epoch measure window and partialRunCut after the
// first measured chunk of a 2000-cycle one.
const (
	cancelRerunCut = 70
	partialRunCut  = 42
)

func TestRunSpecValidate(t *testing.T) {
	for _, good := range []RunSpec{
		{Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"epoch": 1000}},
		{Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"noc": 1}, Fault: "sat-partition"},
	} {
		if _, _, err := (Exec{}).Resolve(good); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", good, err)
		}
	}
	for name, spec := range map[string]RunSpec{
		"bad-bench": {Bench: "nope", Scale: "quick"},
		"no-scale":  {Bench: BenchStreams},
		"bad-param": {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"warp": 9}},
		// Params that name a machine which cannot build: rejected here,
		// not by the allocator (the first used to take the process down
		// with an out-of-memory fatal no recover() sees).
		"huge-queue":   {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"queue": 1 << 33}},
		"wrapped-int":  {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"queue": 1 << 63}},
		"huge-flits":   {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"noc": 1, "nocflits": 1 << 40}},
		"zero-queue":   {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"queue": 0}},
		"zero-epoch":   {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"epoch": 0}},
		"flag-not-0/1": {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"page": 7}},
		"permc+hetero": {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"permc": 1, "hetero": 1}},
		// The modeled fabric has no hook that applies a NoC fault.
		"noc+noc-storm":  {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"noc": 1}, Fault: "noc-storm"},
		"noc+everything": {Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"noc": 1}, Fault: "everything"},
	} {
		_, _, err := Exec{}.Resolve(spec)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if !errors.Is(err, config.ErrInvalid) {
			t.Fatalf("%s: error %v not config.ErrInvalid", name, err)
		}
	}
	if _, err := ScaleByName("nope"); !errors.Is(err, config.ErrInvalid) {
		t.Fatalf("unknown scale not config.ErrInvalid: %v", err)
	}
}

func TestRunSpecFingerprint(t *testing.T) {
	a := RunSpec{Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"epoch": 1000, "slack": 32}}
	b := RunSpec{Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"slack": 32, "epoch": 1000}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on map iteration order")
	}
	c := RunSpec{Bench: BenchStreams, Scale: "quick", Params: map[string]uint64{"epoch": 2000, "slack": 32}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different params share a fingerprint")
	}
}

func TestSetParamUnknown(t *testing.T) {
	cfg := Quick().Apply(pabst.Default32Config())
	if err := SetParam(&cfg, "warp", 9); !errors.Is(err, config.ErrInvalid) {
		t.Fatalf("unknown param not config.ErrInvalid: %v", err)
	}
	if err := SetParam(&cfg, "queue", 16); err != nil {
		t.Fatal(err)
	}
	if cfg.DRAM.FrontReadQ != 16 || cfg.DRAM.FrontWriteQ != 16 {
		t.Fatalf("queue param depths wrong: %+v", cfg.DRAM)
	}
}

// TestParamSweepsAreBuildable: every ablation axis names a sweepable
// parameter, is named after it, and every point it emits is a valid
// spec, so an axis cannot fail after its first points have run.
func TestParamSweepsAreBuildable(t *testing.T) {
	for i, e := range ParamSweeps() {
		ax := paramAxes[i]
		if _, ok := paramRegistry[ax.param]; !ok {
			t.Errorf("axis %q names no sweepable parameter", ax.param)
		}
		if want := "sweep-" + ax.param; e.Name() != want {
			t.Errorf("axis %q is named %q, want %q", ax.param, e.Name(), want)
		}
		if ax.labels != nil && len(ax.labels) != len(ax.values) {
			t.Errorf("axis %q: %d labels for %d values", ax.param, len(ax.labels), len(ax.values))
		}
		for _, rs := range e.Spec("quick") {
			if _, _, err := (Exec{}).Resolve(rs); err != nil {
				t.Errorf("axis %q: %+v: %v", ax.param, rs, err)
			}
		}
	}
}

// TestParamSweepRendersOneRowPerValue runs the one axis with a second
// mix (slack, which also runs the chaser bench) on the tiny scale.
func TestParamSweepRendersOneRowPerValue(t *testing.T) {
	var slack Experiment
	for _, e := range ParamSweeps() {
		if e.Name() == "sweep-slack" {
			slack = e
		}
	}
	if slack == nil {
		t.Fatal("no sweep-slack axis")
	}
	tbl, specs, _, err := RunExperimentScale(context.Background(), slack, tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	values := []string{"8", "32", "128", "512", "4096"}
	if len(specs) != 2*len(values) || len(tbl.Rows) != len(values) {
		t.Fatalf("%d specs, %d rows; want %d and %d", len(specs), len(tbl.Rows), 2*len(values), len(values))
	}
	for i, row := range tbl.Rows {
		if row.Label != values[i] {
			t.Errorf("row %d is labeled %q, want %q", i, row.Label, values[i])
		}
		if share := row.Values["chaser-share"]; share <= 0 || share >= 1 {
			t.Errorf("row %s: chaser-share %v outside (0, 1)", row.Label, share)
		}
		if row.Values["total-B/cyc"] <= 0 {
			t.Errorf("row %s moved no bytes", row.Label)
		}
	}
}

// TestRunSpecDeterministic pins that the same spec produces the same
// result fingerprint across calls and across both bench kinds.
func TestRunSpecDeterministic(t *testing.T) {
	for _, bench := range []string{BenchStreams, BenchChaser} {
		spec := RunSpec{Bench: bench, Scale: "tiny", Params: map[string]uint64{"slack": 64}}
		r1, err := spec.Run(context.Background(), tinyExec(), RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := spec.Run(context.Background(), tinyExec(), RunIO{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Fingerprint == "" || r1.Fingerprint != r2.Fingerprint {
			t.Fatalf("%s: fingerprints %q vs %q", bench, r1.Fingerprint, r2.Fingerprint)
		}
		if r1.Cycles != tinyScale().Measure {
			t.Fatalf("%s: measured %d cycles, want %d", bench, r1.Cycles, tinyScale().Measure)
		}
	}
	// The streams bench converges near its 7:3 split even at tiny scale.
	spec := RunSpec{Bench: BenchStreams, Scale: "tiny"}
	r, err := spec.Run(context.Background(), tinyExec(), RunIO{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ShareHi < 0.55 || r.ShareHi > 0.85 {
		t.Fatalf("streams share-hi %.3f implausible", r.ShareHi)
	}
}

// TestFaultPresetsAtResolve: the presets FaultPresetsAt shows for a
// named scale are exactly those a faulted spec at that scale resolves
// with, and quick's 2 000-cycle epoch cannot hold sat-delay's
// 3 000-cycle lag.
func TestFaultPresetsAtResolve(t *testing.T) {
	for _, sc := range []Scale{Quick(), Full()} {
		shown := FaultPresetsAt(sc)
		for _, p := range pabst.FaultPresets() {
			_, _, err := Exec{}.Resolve(RunSpec{Bench: BenchStreams, Scale: sc.Name, Fault: p})
			if in := slices.Contains(shown, p); in != (err == nil) {
				t.Errorf("%s: preset %s shown %v, Resolve = %v", sc.Name, p, in, err)
			}
		}
	}
	if quick := FaultPresetsAt(Quick()); slices.Contains(quick, "sat-delay") || len(quick) != len(pabst.FaultPresets())-1 {
		t.Errorf("quick holds %v, want every preset but sat-delay", quick)
	}
}

// TestRunSpecCancelRerun pins what a cancelled run costs: cancelled a
// third of the way into the measure window, Run returns the context
// error with the measured prefix and nothing else, and a plain rerun
// equals an uninterrupted run.
func TestRunSpecCancelRerun(t *testing.T) {
	spec := RunSpec{Bench: BenchStreams, Scale: "tiny", Params: map[string]uint64{"epoch": 1000}}

	ref, err := spec.Run(context.Background(), tinyExec(), RunIO{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := spec.Run(cutAt(cancelRerunCut), tinyExec(), RunIO{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want the context error", err)
	}
	if res.Cycles == 0 || res.Cycles >= tinyScale().Measure || res.Fingerprint != "" {
		t.Fatalf("cancelled run returned %+v, want a strict prefix of the window and no result", res)
	}

	res2, err := spec.Run(context.Background(), tinyExec(), RunIO{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != tinyScale().Measure || res2.Fingerprint != ref.Fingerprint {
		t.Fatalf("rerun = %d cycles, fingerprint %s; want the whole window and %s",
			res2.Cycles, res2.Fingerprint, ref.Fingerprint)
	}
}

// TestRunTakesOneSnapshot pins the read-out path of a run: RunSpec.Run
// hands the finished machine to collectResult once, collectResult takes
// the run's only Snapshot, and nothing on the path (resultFingerprint
// included) asks the machine for a second view or for a separate
// Metrics. Checked on the source, because a second Snapshot of a stopped
// machine returns the same values and no run-time assertion could tell.
func TestRunTakesOneSnapshot(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "spec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]map[string]int{} // enclosing func -> callee -> count
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee string
			switch f := call.Fun.(type) {
			case *ast.SelectorExpr:
				callee = f.Sel.Name
			case *ast.Ident:
				callee = f.Name
			}
			if calls[fn.Name.Name] == nil {
				calls[fn.Name.Name] = map[string]int{}
			}
			calls[fn.Name.Name][callee]++
			return true
		})
	}
	if n := calls["Run"]["collectResult"]; n != 1 {
		t.Errorf("Run calls collectResult %d times, want 1", n)
	}
	if n := calls["collectResult"]["Snapshot"]; n != 1 {
		t.Errorf("collectResult takes %d Snapshots, want 1", n)
	}
	for fn, callees := range calls {
		if fn != "collectResult" && callees["Snapshot"] > 0 {
			t.Errorf("%s takes a Snapshot of its own", fn)
		}
		if callees["Metrics"] > 0 {
			t.Errorf("%s reads Metrics beside the Snapshot (it is Snapshot.Window)", fn)
		}
	}
}
