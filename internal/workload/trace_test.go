package workload

import (
	"strings"
	"testing"
)

func TestRecorderCapturesOps(t *testing.T) {
	s := NewStream("s", region(0, 4096), 128, true)
	r := NewRecorder(s, 10)
	var op Op
	for i := 0; i < 25; i++ {
		r.Next(&op)
	}
	if len(r.Trace()) != 10 {
		t.Fatalf("recorded %d ops, limit 10", len(r.Trace()))
	}
	if !strings.Contains(r.Name(), "s") {
		t.Fatal("recorder lost the inner name")
	}
	// The recorded ops match a fresh generator's output.
	fresh := NewStream("s", region(0, 4096), 128, true)
	for i, got := range r.Trace() {
		var want Op
		fresh.Next(&want)
		if got != want {
			t.Fatalf("op %d: recorded %+v, want %+v", i, got, want)
		}
	}
}

// TestTraceRoundTrip: a recorded trace replays op for op, tags included,
// and then loops.
func TestTraceRoundTrip(t *testing.T) {
	ch := NewChaser("c", region(0, 1<<20), 4, 9)
	r := NewRecorder(ch, 50)
	var op Op
	for i := 0; i < 50; i++ {
		r.Next(&op)
	}
	rep, err := NewReplayer("replay", r.Trace())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rep.Next(&op)
		if want := r.Trace()[i%50]; op != want {
			t.Fatalf("op %d: %+v != %+v", i, op, want)
		}
	}
}

func TestReplayerLoops(t *testing.T) {
	ops := []Op{
		{Addr: 0x40, Gap: 1, Insts: 2},
		{Addr: 0x80, Write: true, DependsOn: 1, Gap: 3, Insts: 4},
	}
	rep, err := NewReplayer("replay", ops)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	for i := 0; i < 6; i++ {
		rep.Next(&op)
		if op != ops[i%2] {
			t.Fatalf("replay op %d = %+v", i, op)
		}
	}
}

func TestReplayerRejectsEmpty(t *testing.T) {
	if _, err := NewReplayer("x", nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}
