package main

import (
	"flag"
	"io"
	"testing"

	"pabst"
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

// TestTileOutsideTheMachineRefused: -tile names one of the traced
// machine's tiles or -1 for all. A tile the machine does not have used
// to trace no governor event at all, and any other negative tile was
// read as "all"; both are refused now, which exits 2 before simulating.
func TestTileOutsideTheMachineRefused(t *testing.T) {
	const tiles = 32
	for _, tile := range []int{-7, -2, tiles, 999} {
		if _, err := buildFilter("", tile, tiles); err == nil {
			t.Errorf("-tile %d accepted on a %d-tile machine", tile, tiles)
		}
	}
	for _, tile := range []int{-1, 0, 3, tiles - 1} {
		if _, err := buildFilter("", tile, tiles); err != nil {
			t.Errorf("-tile %d refused: %v", tile, err)
		}
	}
	keep, err := buildFilter("governor", 3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if !keep(&pabst.Event{Kind: pabst.KindGovernor, Unit: 3}) || keep(&pabst.Event{Kind: pabst.KindGovernor, Unit: 4}) {
		t.Error("-tile 3 does not keep exactly tile 3's governor events")
	}
}
