package sim

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pabst/internal/ckpt"
)

func TestDelayQueueNotReadyBeforeTime(t *testing.T) {
	var q DelayQueue[int]
	q.Push(42, 10)
	if _, ok := q.Pop(9); ok {
		t.Fatal("popped item before its readyAt cycle")
	}
	v, ok := q.Pop(10)
	if !ok || v != 42 {
		t.Fatalf("Pop(10) = %d,%v want 42,true", v, ok)
	}
}

func TestDelayQueueOrdersByReadyAt(t *testing.T) {
	var q DelayQueue[string]
	q.Push("late", 30)
	q.Push("early", 10)
	q.Push("mid", 20)
	var got []string
	for {
		v, ok := q.Pop(100)
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []string{"early", "mid", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestDelayQueueFIFOAtSameCycle(t *testing.T) {
	var q DelayQueue[int]
	for i := 0; i < 20; i++ {
		q.Push(i, 5)
	}
	for i := 0; i < 20; i++ {
		v, ok := q.Pop(5)
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v; same-cycle items must pop FIFO", i, v, ok)
		}
	}
}

func TestDelayQueuePeek(t *testing.T) {
	var q DelayQueue[int]
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
	q.Push(7, 3)
	v, at, ok := q.Peek()
	if !ok || v != 7 || at != 3 {
		t.Fatalf("Peek = %d,%d,%v want 7,3,true", v, at, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Peek changed Len to %d", q.Len())
	}
}

// Property: popping everything yields items sorted by readyAt, and every
// pushed item comes back exactly once.
func TestDelayQueueDrainSortedProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var q DelayQueue[int]
		for i, d := range delays {
			q.Push(i, uint64(d))
		}
		var gotAt []uint64
		seen := make(map[int]bool)
		for {
			item, at, ok := q.Peek()
			if !ok {
				break
			}
			v, ok := q.Pop(at)
			if !ok || v != item {
				return false
			}
			gotAt = append(gotAt, at)
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		if len(seen) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(gotAt, func(i, j int) bool { return gotAt[i] < gotAt[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG is stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// TestCkptDelayQueueRejectsWhatNoQueueHolds: a loaded heap array must
// be one a queue can hold. At the parent of this test each image below
// loaded cleanly; the first then left the item due at 5 stuck behind
// the root, so Pop(5) returned nothing. A queue's own image restores
// and pops in order.
func TestCkptDelayQueueRejectsWhatNoQueueHolds(t *testing.T) {
	walk := func(q *DelayQueue[uint64]) ckpt.WalkFunc {
		return func(c *ckpt.Codec) { CkptDelayQueue(c, q, 8, (*ckpt.Codec).U64) }
	}
	load := func(src *DelayQueue[uint64]) (*DelayQueue[uint64], error) {
		raw, err := ckpt.Encode(ckpt.Header{}, walk(src))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		dst := &DelayQueue[uint64]{}
		return dst, c.Load(walk(dst))
	}
	for name, q := range map[string]*DelayQueue[uint64]{
		"heap order":       {seq: 2, entries: []delayEntry[uint64]{{readyAt: 10, seq: 0}, {readyAt: 5, seq: 1}}},
		"same-cycle order": {seq: 2, entries: []delayEntry[uint64]{{readyAt: 5, seq: 1}, {readyAt: 5, seq: 0}}},
		"repeated seq":     {seq: 2, entries: []delayEntry[uint64]{{readyAt: 5, seq: 1}, {readyAt: 9, seq: 0}, {readyAt: 7, seq: 1}}},
		"seq at counter":   {seq: 1, entries: []delayEntry[uint64]{{readyAt: 5, seq: 1}}},
	} {
		if _, err := load(q); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}

	var q DelayQueue[uint64]
	for i, at := range []uint64{30, 10, 20, 10, 40, 5} {
		q.Push(uint64(i), at)
	}
	q.Pop(5)
	got, err := load(&q)
	if err != nil {
		t.Fatal(err)
	}
	got.Push(6, 10)
	var order []uint64
	for {
		v, ok := got.Pop(100)
		if !ok {
			break
		}
		order = append(order, v)
	}
	if want := []uint64{1, 3, 6, 2, 0, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("restored queue popped %v, want %v", order, want)
	}
}
