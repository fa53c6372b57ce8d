package main

import (
	"flag"
	"io"
	"testing"
)

// TestUsageContract: pabsttrace takes the policy override but no
// checkpoint store (it has no warmup for a store to skip), and no flag
// re-grows that was removed from the commands.
func TestUsageContract(t *testing.T) {
	fs := flag.NewFlagSet("pabsttrace", flag.ContinueOnError)
	new(options).register(fs)
	if fs.Lookup("policy") == nil {
		t.Error("pabsttrace does not define -policy")
	}
	for _, f := range []string{"ckpt", "resume", "workers", "ff", "kernel", "param"} {
		if fs.Lookup(f) != nil {
			t.Errorf("pabsttrace defines -%s", f)
		}
	}
}

// TestNegativeEpochsRefused: -epochs -1 used to wrap to about 2^64
// cycles and never return; it is a parse error now, which exits 2.
func TestNegativeEpochsRefused(t *testing.T) {
	fs := flag.NewFlagSet("pabsttrace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(options).register(fs)
	if err := fs.Parse([]string{"-epochs", "-1"}); err == nil {
		t.Error("-epochs -1 parsed")
	}
}
