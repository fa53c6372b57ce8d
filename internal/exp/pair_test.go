package exp

import (
	"context"
	"encoding/json"
	"testing"

	"pabst"
	"pabst/internal/qospolicy"
)

// TestPairPrecedence pins the one rule for layered mechanism selection
// — most specific wins, side by side: RunSpec.Policy, then the scale's
// process-wide override, then RunSpec.Mode — and that the simulator and
// the analytical twin apply it identically: a spec run (and predicted)
// under an overriding scale is the same machine as the resolved pair
// named plainly under a plain scale.
func TestPairPrecedence(t *testing.T) {
	for _, c := range []struct {
		scale string // Scale.Policy, as -policy would set it
		spec  RunSpec
		want  string
	}{
		{"bankreg+", RunSpec{Policy: "pabst+pabst"}, "pabst+pabst"}, // a fully specified spec is immune
		{"none+fcfs", RunSpec{Policy: "pabst+pabst"}, "pabst+pabst"},
		{"+dpq", RunSpec{Mode: "target-only"}, "none+dpq"}, // the override beats the mode, per half
		{"bankreg+", RunSpec{Mode: "target-only"}, "bankreg+pabst"},
		{"bankreg+", RunSpec{Policy: "+dpq"}, "bankreg+dpq"}, // half-empty layers interleave
		{"+dpq", RunSpec{Policy: "+pabst", Mode: "source-only"}, "pabst+pabst"},
		{"lmsar+", RunSpec{}, "lmsar+pabst"}, // the bench default is full PABST
		{"", RunSpec{Mode: "static-source"}, "static+fcfs"},
	} {
		c := c
		t.Run(c.scale+"/"+c.spec.Policy+"/"+c.spec.Mode, func(t *testing.T) {
			t.Parallel()
			over, err := pabst.ParseMode(c.scale)
			if err != nil {
				t.Fatal(err)
			}
			sc := tinyScale()
			sc.Policy = over
			exOver := Exec{Scales: map[string]Scale{"tiny": sc}}
			rs := c.spec
			rs.Bench, rs.Scale = BenchWStreams, "tiny"
			plain := RunSpec{Bench: BenchWStreams, Scale: "tiny", Policy: c.want}

			b, _, err := rs.buildFor(sc.Apply(pabst.Default32Config()), sc)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if src, tgt := sys.PolicyPair(); src+"+"+tgt != c.want {
				t.Errorf("machine wired %s+%s, want %s", src, tgt, c.want)
			}
			sys.Close()

			got, err := rs.Run(context.Background(), exOver, RunIO{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := plain.Run(context.Background(), tinyExec(), RunIO{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint != ref.Fingerprint {
				t.Errorf("simulated a different machine than %s: %s vs %s", c.want, got.Fingerprint, ref.Fingerprint)
			}

			pGot, err := PredictSpec(rs, exOver)
			if err != nil {
				t.Fatal(err)
			}
			pRef, err := PredictSpec(plain, tinyExec())
			if err != nil {
				t.Fatal(err)
			}
			if pGot != pRef {
				t.Errorf("twin predicted a different machine than %s:\n got %+v\nwant %+v", c.want, pGot, pRef)
			}
		})
	}
}

// FuzzRunSpecJSON feeds arbitrary bytes through the wire path of a job
// (JSON → RunSpec → Exec.Resolve): nothing panics, and a spec that
// resolves at the fuzz scale has a fingerprint that survives
// re-serialization, resolves to a registered mechanism, and builds its
// machine from the resolved configuration, exactly as Run builds it. The
// seeds — every spec of every registered experiment plus the five legacy
// mode names — run as ordinary tests.
func FuzzRunSpecJSON(f *testing.F) {
	seen := map[string]bool{}
	add := func(rs RunSpec) {
		if fp := rs.Fingerprint(); !seen[fp] {
			seen[fp] = true
			raw, err := json.Marshal(rs)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	for _, e := range Experiments() {
		for _, rs := range e.Spec("quick") {
			add(rs)
		}
	}
	for _, m := range qospolicy.Presets() {
		add(RunSpec{Bench: BenchChaser, Scale: "quick", Mode: m.String()})
		add(RunSpec{Bench: BenchStreams, Scale: "quick", Policy: m.Source + "+", Mode: "none"})
	}
	f.Add([]byte(`{"bench":"streams","scale":"quick","policy":"+dpq","fault":"sat-drop","load":3}`))
	f.Add([]byte(`{"bench":"spec-mix","scale":"x","workload":"nope"}`))
	f.Add([]byte(`{"bench":"streams","scale":"quick","mode":"bankreg+dpq","policy":"static"}`))
	f.Add([]byte(`{"bench":7}`))
	// Params that validated, were journaled and killed the worker in the
	// allocator, or silently aliased another machine (a flag that is not
	// 0 or 1); see TestHostileParamsRejected.
	f.Add([]byte(`{"bench":"streams","scale":"quick","params":{"queue":8589934592}}`))
	f.Add([]byte(`{"bench":"streams","scale":"quick","params":{"page":7}}`))
	// A parameter this build no longer has: rejected like any unknown name.
	f.Add([]byte(`{"bench":"streams","scale":"quick","params":{"bankq":2}}`))

	sc := Scale{Name: "fuzz", Warmup: 500, Measure: 500, Epoch: 250, Window: 250}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var rs RunSpec
		if json.Unmarshal(raw, &rs) != nil {
			return
		}
		cfg, _, err := Exec{Scales: map[string]Scale{rs.Scale: sc}}.Resolve(rs)
		if err != nil {
			return
		}
		fp := rs.Fingerprint()
		wire, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		var back RunSpec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != fp {
			t.Fatalf("fingerprint changed across the wire: %+v -> %+v", rs, back)
		}
		pair, err := rs.pair(sc)
		if err != nil {
			t.Fatalf("resolved spec has no mechanism: %v", err)
		}
		if _, err := pabst.ParseMode(pair.Source + "+" + pair.Target); err != nil || pair.Source == "" || pair.Target == "" {
			t.Fatalf("%+v resolves to %q+%q: %v", rs, pair.Source, pair.Target, err)
		}
		b, _, err := rs.buildFor(cfg, sc)
		if err != nil {
			t.Fatalf("resolved spec does not build: %+v: %v", rs, err)
		}
		sys, err := b.Build()
		if err != nil {
			t.Fatalf("resolved spec does not wire: %+v: %v", rs, err)
		}
		if src, tgt := sys.PolicyPair(); src != pair.Source || tgt != pair.Target {
			t.Fatalf("%+v wired %s+%s, resolved %v", rs, src, tgt, pair)
		}
		sys.Close()
	})
}
