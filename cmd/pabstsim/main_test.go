package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"pabst"
	"pabst/internal/exp"
)

// TestSpecSubset pins that -spec takes exactly the names the fig10-12
// benches can build: "stream" is a registered workload but not a SPEC
// proxy, and used to pass the up-front check and die mid-run.
func TestSpecSubset(t *testing.T) {
	if got, err := specSubset("mcf,lbm"); err != nil || len(got) != 2 {
		t.Fatalf("specSubset(mcf,lbm) = %v, %v", got, err)
	}
	for _, bad := range []string{"stream", "mfc", "mcf,"} {
		_, err := specSubset(bad)
		if err == nil || !strings.Contains(err.Error(), "sphinx3") || strings.Contains(err.Error(), "chaser") {
			t.Errorf("specSubset(%q) = %v; want an error listing the SPEC proxies only", bad, err)
		}
	}
}

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("pabstsim", flag.ContinueOnError)
	var o options
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &o
}

func TestApplyStampsEveryKnob(t *testing.T) {
	s, err := parse(t, "-scale", "quick", "-policy", "bankreg+dpq", "-parallel", "1").runScale()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "quick" || s.Parallel != 1 {
		t.Errorf("runScale lost a knob: %+v", s)
	}
	if want := (pabst.Mode{Source: "bankreg", Target: "dpq"}); s.Policy != want {
		t.Errorf("policy pair = %v, want %v", s.Policy, want)
	}
}

func TestBadPolicyRejected(t *testing.T) {
	if _, err := parse(t, "-policy", "nosuch+pair").runScale(); err == nil {
		t.Error("runScale accepted an unknown policy pair")
	}
}

// TestJSONTable3 decodes all of -json table3's output: under -json
// every byte written belongs to a JSON document, and Table III's is one
// document holding both machines' configuration lines.
func TestJSONTable3(t *testing.T) {
	o := parse(t, "-json", "table3")
	sc, err := o.runScale()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o.run(&out, sc, nil, []string{"table3"})
	type doc struct {
		Title string
		Lines []string
	}
	var docs []doc
	for dec := json.NewDecoder(&out); ; {
		var d doc
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("document %d does not decode: %v", len(docs)+1, err)
		}
		docs = append(docs, d)
	}
	if len(docs) != 1 {
		t.Fatalf("-json table3 wrote %d documents, want 1", len(docs))
	}
	text := strings.Join(docs[0].Lines, "\n")
	for _, cfg := range []pabst.SystemConfig{pabst.Default32Config(), pabst.Scaled8Config()} {
		if !strings.Contains(text, strings.TrimSuffix(exp.Table3(cfg), "\n")) {
			t.Errorf("table3 document %q lacks the %s configuration:\n%s", docs[0].Title, cfg.Name, text)
		}
	}
}

func TestSeriesRefusedWithJSON(t *testing.T) {
	if _, err := parse(t, "-json", "-series").runScale(); err == nil {
		t.Error("runScale accepted -series with -json")
	}
}

// TestOptionsBuildable: the stamped scale reaches a built system as
// builder options, half-empty overrides and preset names included.
func TestOptionsBuildable(t *testing.T) {
	for flagVal, want := range map[string]pabst.Mode{
		"bankreg+dpq": {Source: "bankreg", Target: "dpq"},
		"+dpq":        {Source: "pabst", Target: "dpq"},
		"target-only": pabst.ModeTargetOnly,
	} {
		s, err := parse(t, "-policy", flagVal).runScale()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := pabst.NewBuilder(pabst.Default32Config(), pabst.ModePABST, s.Options()...).Build()
		if err != nil {
			t.Fatal(err)
		}
		if src, tgt := sys.PolicyPair(); (pabst.Mode{Source: src, Target: tgt}) != want {
			t.Errorf("-policy %s built %s+%s, want %v", flagVal, src, tgt, want)
		}
		sys.Close()
	}
}

// TestUsageContract: pabstsim takes the policy override, and no flag
// re-grows that was removed: the event kernel is the only kernel
// (-kernel, -ff, -workers), an ablation axis is an experiment name, not
// a -param, and the result cache, not a checkpoint directory, answers a
// repeated run. -faults takes a preset, so its help lists them all,
// says which each scale's epoch holds, and offers no plan file.
func TestUsageContract(t *testing.T) {
	fs := flag.NewFlagSet("pabstsim", flag.ContinueOnError)
	new(options).register(fs)
	if fs.Lookup("policy") == nil {
		t.Error("pabstsim does not define -policy")
	}
	usage := fs.Lookup("faults").Usage
	for _, p := range pabst.FaultPresets() {
		if !strings.Contains(usage, p) {
			t.Errorf("-faults help %q does not list preset %s", usage, p)
		}
	}
	for _, sc := range []exp.Scale{exp.Quick(), exp.Full()} {
		if fit := sc.Name + " (epoch "; !strings.Contains(usage, fit) || !strings.Contains(usage, strings.Join(exp.FaultPresetsAt(sc), ", ")) {
			t.Errorf("-faults help %q does not say which presets %s holds", usage, sc.Name)
		}
	}
	if strings.Contains(usage, "JSON") || strings.Contains(usage, "file") {
		t.Errorf("-faults help %q still offers a plan file", usage)
	}
	for _, f := range []string{"workers", "ff", "kernel", "param", "ckpt", "resume"} {
		if fs.Lookup(f) != nil {
			t.Errorf("pabstsim defines -%s", f)
		}
	}
}

// TestEverySweepAxisResolves: each ablation axis is reachable by its
// name, and "all" does not run it.
func TestEverySweepAxisResolves(t *testing.T) {
	sweeps := exp.ParamSweeps()
	if len(sweeps) == 0 {
		t.Fatal("no ablation axes")
	}
	for _, want := range sweeps {
		got, err := registryExperiment(want.Name(), nil, "")
		if err != nil || got.Name() != want.Name() {
			t.Errorf("registryExperiment(%q) = %v, %v", want.Name(), got, err)
		}
		for _, e := range listing() {
			if e.name == want.Name() {
				t.Errorf("%s is part of all", want.Name())
			}
		}
	}
	if _, err := registryExperiment("sweep-bankq", nil, ""); err == nil {
		t.Error("registryExperiment resolved an axis that does not exist")
	}
}
