package workload

import "testing"

// TestTraceRoundTrip: a chaser's ops replay op for op, tags included,
// and then loop.
func TestTraceRoundTrip(t *testing.T) {
	ch := NewChaser("c", region(0, 1<<20), 4, 9)
	trace := make([]Op, 50)
	for i := range trace {
		ch.Next(&trace[i])
	}
	rep, err := NewReplayer("replay", trace)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	for i := 0; i < 100; i++ {
		rep.Next(&op)
		if want := trace[i%50]; op != want {
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
