package main

import (
	"strings"
	"testing"
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
