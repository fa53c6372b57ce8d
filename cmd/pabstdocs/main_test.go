package main

import (
	"os"
	"testing"
)

// TestDocsGate runs the documentation gate under `go test ./...`: a dead
// intra-repo link, a package without a comment, a stale docs/POLICIES.md
// or an experiment missing from EXPERIMENTS.md fails tier-1, not only
// `make lint-docs`.
func TestDocsGate(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, f := range lint() {
		t.Error(f)
	}
}
