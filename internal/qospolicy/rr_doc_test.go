package qospolicy

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// The registration block of docs/POLICY_AUTHORING.md, verbatim.
func init() {
	registerTarget(Info{
		Name: "rr",
		Desc: "class round-robin DRAM service (ignores weights)",
		Cite: "textbook round-robin; illustrative example",
	}, newRRArbiter)
}

// TestPolicyAuthoringExample keeps the guide's worked example honest:
// its two Go listings are the compiled sources of this package's test
// binary (rr_example_test.go and the init above), the policy they
// register satisfies the real checkpoint interface, and its state
// survives an image.
func TestPolicyAuthoringExample(t *testing.T) {
	guide, err := os.ReadFile("../../docs/POLICY_AUTHORING.md")
	if err != nil {
		t.Fatal(err)
	}
	listings := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllSubmatch(guide, -1)
	if len(listings) < 2 {
		t.Fatalf("guide has %d Go listings, want the policy and its registration", len(listings))
	}
	compiled, err := os.ReadFile("rr_example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(listings[0][1], compiled) {
		t.Error("docs/POLICY_AUTHORING.md's rrArbiter listing differs from rr_example_test.go")
	}
	self, err := os.ReadFile("rr_doc_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(self), string(listings[1][1])) {
		t.Error("docs/POLICY_AUTHORING.md's registration listing differs from the init in rr_doc_test.go")
	}

	reg, hi, lo := testRegistry(1, 1)
	build := func() *rrArbiter {
		_, arb, err := NewTarget("rr", TargetEnv{Params: testParams(), Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		return arb.(*rrArbiter)
	}
	var _ ckpt.Walker = build()
	orig, twin := build(), build()
	for i := 0; i < 5; i++ {
		orig.OnAccept(&mem.Packet{Class: hi}, 0)
	}
	orig.OnAccept(&mem.Packet{Class: lo}, 0)
	raw, err := ckpt.Encode(ckpt.Header{}, orig)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(twin); err != nil {
		t.Fatal(err)
	}
	if twin.round[hi] != 5 || twin.round[lo] != 1 {
		t.Errorf("restored rounds %v, want 5 and 1", twin.round)
	}
}
