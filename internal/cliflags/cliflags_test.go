package cliflags

import (
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pabst"
	"pabst/internal/exp"
)

func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestApplyStampsEveryKnob(t *testing.T) {
	c := parse(t, "-policy", "bankreg+dpq", "-ckpt", "/tmp/ck", "-resume")
	var s exp.Scale
	if err := c.Apply(&s); err != nil {
		t.Fatal(err)
	}
	if s.Ckpt != "/tmp/ck" || !s.Resume {
		t.Errorf("Apply lost a knob: %+v", s)
	}
	if want := (pabst.Mode{Source: "bankreg", Target: "dpq"}); s.Policy != want {
		t.Errorf("policy pair = %v, want %v", s.Policy, want)
	}
}

func TestResumeRequiresCkpt(t *testing.T) {
	c := parse(t, "-resume")
	if _, err := c.Validate(); err == nil {
		t.Error("Validate accepted -resume without -ckpt")
	}
}

func TestBadPolicyRejected(t *testing.T) {
	c := parse(t, "-policy", "nosuch+pair")
	if _, err := c.Validate(); err == nil {
		t.Error("Validate accepted an unknown policy pair")
	}
}

// TestOptionsBuildable: the applied flags reach a built system as
// builder options, half-empty overrides and preset names included.
func TestOptionsBuildable(t *testing.T) {
	for flagVal, want := range map[string]pabst.Mode{
		"bankreg+dpq": {Source: "bankreg", Target: "dpq"},
		"+dpq":        {Source: "pabst", Target: "dpq"},
		"target-only": pabst.ModeTargetOnly,
	} {
		var s exp.Scale
		if err := parse(t, "-policy", flagVal).Apply(&s); err != nil {
			t.Fatal(err)
		}
		sys, err := pabst.NewBuilder(pabst.Default32Config(), pabst.ModePABST, s.Options()...).Build()
		if err != nil {
			t.Fatal(err)
		}
		if src, tgt := sys.PolicyPair(); (pabst.Mode{Source: src, Target: tgt}) != want {
			t.Errorf("-policy %s built %s+%s, want %v", flagVal, src, tgt, want)
		}
	}
}

// TestEveryBinaryAcceptsCommonFlags is the cross-binary contract: each
// command registers the shared flag set, so a flag like -policy works
// identically everywhere — and none re-grows a kernel-selection flag:
// the event kernel is the only production path. The -h usage dump lists
// every defined flag, which is exactly the acceptance we need to check.
func TestEveryBinaryAcceptsCommonFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries")
	}
	want := []string{"-policy", "-ckpt", "-resume"}
	gone := []string{"-workers", "-ff", "-kernel"}
	root := filepath.Join("..", "..")
	for _, bin := range []string{"pabstsim", "pabstsweep", "pabsttrace"} {
		bin := bin
		t.Run(bin, func(t *testing.T) {
			cmd := exec.Command("go", "run", "pabst/cmd/"+bin, "-h")
			cmd.Dir = root
			out, _ := cmd.CombinedOutput() // -h exits non-zero by design
			usage := string(out)
			has := func(f string) bool {
				return strings.Contains(usage, "  "+f+" ") || strings.Contains(usage, "  "+f+"\n")
			}
			for _, f := range want {
				if !has(f) {
					t.Errorf("%s usage is missing %s:\n%s", bin, f, usage)
				}
			}
			for _, f := range gone {
				if has(f) {
					t.Errorf("%s still defines %s:\n%s", bin, f, usage)
				}
			}
		})
	}
}
