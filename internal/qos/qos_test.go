package qos

import (
	"testing"
	"testing/quick"

	"pabst/internal/mem"
)

func TestStrideInverseOfWeight(t *testing.T) {
	r := NewRegistry()
	hi := r.MustAdd("hi", 3, 8)
	lo := r.MustAdd("lo", 1, 8)
	// weights 3:1 -> strides 1:3
	if hi.Stride != 1 || lo.Stride != 3 {
		t.Fatalf("strides = %d:%d, want 1:3", hi.Stride, lo.Stride)
	}
}

func TestStrideReduction(t *testing.T) {
	r := NewRegistry()
	a := r.MustAdd("a", 50, 4)
	b := r.MustAdd("b", 25, 4)
	c := r.MustAdd("c", 25, 4)
	// weights 2:1:1 after reduction -> strides 1:2:2
	if a.Stride != 1 || b.Stride != 2 || c.Stride != 2 {
		t.Fatalf("strides = %d:%d:%d, want 1:2:2", a.Stride, b.Stride, c.Stride)
	}
}

func TestStrideWeightProductConstant(t *testing.T) {
	// stride_i * weight_i must be the same for all classes (exact
	// inverse proportionality, Eq. 2).
	f := func(w1, w2, w3 uint16) bool {
		weights := []uint64{uint64(w1)%500 + 1, uint64(w2)%500 + 1, uint64(w3)%500 + 1}
		r := NewRegistry()
		var classes []*Class
		for i, w := range weights {
			classes = append(classes, r.MustAdd(string(rune('a'+i)), w, 4))
		}
		p := classes[0].Stride * classes[0].Weight
		for _, c := range classes {
			if c.Stride == 0 || c.Stride*c.Weight != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetWeightRecomputesAllStrides(t *testing.T) {
	r := NewRegistry()
	a := r.MustAdd("a", 1, 4)
	b := r.MustAdd("b", 1, 4)
	if a.Stride != 1 || b.Stride != 1 {
		t.Fatalf("equal weights should give equal strides, got %d:%d", a.Stride, b.Stride)
	}
	if err := r.SetWeight(a.ID, 4); err != nil {
		t.Fatal(err)
	}
	if a.Stride != 1 || b.Stride != 4 {
		t.Fatalf("after reweight strides = %d:%d, want 1:4", a.Stride, b.Stride)
	}
}

func TestShare(t *testing.T) {
	r := NewRegistry()
	a := r.MustAdd("a", 7, 4)
	b := r.MustAdd("b", 3, 4)
	if got := r.Share(a.ID); got != 0.7 {
		t.Fatalf("Share(a) = %g, want 0.7", got)
	}
	if got := r.Share(b.ID); got != 0.3 {
		t.Fatalf("Share(b) = %g, want 0.3", got)
	}
}

func TestAttachCPUCountsThreads(t *testing.T) {
	r := NewRegistry()
	c := r.MustAdd("c", 1, 4)
	for i := 0; i < 16; i++ {
		r.AttachCPU(c.ID)
	}
	if c.Threads() != 16 || r.Threads(c.ID) != 16 {
		t.Fatalf("Threads = %d/%d, want 16", c.Threads(), r.Threads(c.ID))
	}
}

func TestAddErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add("z", 0, 4); err == nil {
		t.Fatal("zero weight accepted")
	}
	r.MustAdd("dup", 1, 4)
	if _, err := r.Add("dup", 1, 4); err == nil {
		t.Fatal("duplicate name accepted")
	}
	for i := 0; i < mem.MaxClasses-1; i++ {
		r.MustAdd(string(rune('A'+i)), 1, 1)
	}
	if _, err := r.Add("overflow", 1, 1); err == nil {
		t.Fatal("class limit not enforced")
	}
}

func TestLookup(t *testing.T) {
	r := NewRegistry()
	want := r.MustAdd("web", 5, 8)
	got, ok := r.Lookup("web")
	if !ok || got != want {
		t.Fatalf("Lookup(web) = %v,%v", got, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestSetWeightZeroRejected(t *testing.T) {
	r := NewRegistry()
	c := r.MustAdd("c", 2, 4)
	if err := r.SetWeight(c.ID, 0); err == nil {
		t.Fatal("SetWeight(0) accepted")
	}
}

// TestStrideOverflowRejected pins the checked lcm: weights whose lcm
// overflows 64 bits used to divide by zero inside Add or truncate to
// strides of the wrong ratio; Add and SetWeight refuse them and leave
// every weight, stride and name as it was.
func TestStrideOverflowRejected(t *testing.T) {
	for _, w := range [][2]uint64{
		{1<<62 + 1, 1<<62 + 3},   // divided by zero
		{1 << 63, 3},             // truncated to 1 : 3074457345618258602
		{4294967311, 4294967357}, // two primes past 2^32: truncated to 1 : 1
	} {
		r := NewRegistry()
		a := r.MustAdd("a", w[0], 4)
		if _, err := r.Add("b", w[1], 4); err == nil {
			t.Fatalf("Add of weights %d:%d accepted, strides %d:%d", w[0], w[1], a.Stride, r.Stride(1))
		}
		if _, ok := r.Lookup("b"); ok || r.NumClasses() != 1 || a.Weight != w[0] || a.Stride != 1 {
			t.Fatalf("refused Add of %d:%d left %d classes, a = %+v", w[0], w[1], r.NumClasses(), a)
		}
		b := r.MustAdd("b", w[0], 4)
		if err := r.SetWeight(b.ID, w[1]); err == nil {
			t.Fatalf("SetWeight to weights %d:%d accepted, strides %d:%d", w[0], w[1], a.Stride, b.Stride)
		}
		if b.Weight != w[0] || a.Stride != 1 || b.Stride != 1 {
			t.Fatalf("refused SetWeight to %d:%d left weights %d:%d strides %d:%d", w[0], w[1], a.Weight, b.Weight, a.Stride, b.Stride)
		}
	}
}
