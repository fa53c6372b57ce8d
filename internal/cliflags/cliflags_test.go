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
	if s.SourcePolicy != "bankreg" || s.TargetPolicy != "dpq" {
		t.Errorf("policy pair = %q+%q", s.SourcePolicy, s.TargetPolicy)
	}
}

func TestExecMatchesApply(t *testing.T) {
	c := parse(t, "-ckpt", "/tmp/ck", "-resume")
	ex, err := c.Exec()
	if err != nil {
		t.Fatal(err)
	}
	var s exp.Scale
	if err := c.Apply(&s); err != nil {
		t.Fatal(err)
	}
	sc, err := ex.Scale("quick")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Ckpt != s.Ckpt || sc.Resume != s.Resume {
		t.Errorf("Exec and Apply disagree:\nexec  %+v\napply %+v", sc, s)
	}
}

func TestResumeRequiresCkpt(t *testing.T) {
	c := parse(t, "-resume")
	if _, _, err := c.Validate(); err == nil {
		t.Error("Validate accepted -resume without -ckpt")
	}
}

func TestBadPolicyRejected(t *testing.T) {
	c := parse(t, "-policy", "nosuch+pair")
	if _, _, err := c.Validate(); err == nil {
		t.Error("Validate accepted an unknown policy pair")
	}
}

func TestOptionsBuildable(t *testing.T) {
	c := parse(t, "-policy", "bankreg+dpq")
	opts, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pabst.NewBuilder(pabst.Default32Config(), pabst.ModePABST, opts...).Build()
	if err != nil {
		t.Fatal(err)
	}
	if src, tgt := sys.PolicyPair(); src != "bankreg" || tgt != "dpq" {
		t.Errorf("built policy pair = %q+%q", src, tgt)
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
