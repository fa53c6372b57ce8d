package main

import (
	"flag"
	"testing"
)

// TestUsageContract: pabstserve takes its listen address, state
// directory, queue depth and pool size, and no attempt budget: a job
// runs once, so -attempts does not come back.
func TestUsageContract(t *testing.T) {
	fs := flag.NewFlagSet("pabstserve", flag.ContinueOnError)
	new(options).register(fs)
	for _, f := range []string{"addr", "dir", "queue", "jobs"} {
		if fs.Lookup(f) == nil {
			t.Errorf("pabstserve does not define -%s", f)
		}
	}
	if fs.Lookup("attempts") != nil {
		t.Error("pabstserve defines -attempts")
	}
}
