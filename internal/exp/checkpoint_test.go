package exp

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"pabst"
)

// TestCheckpointAllocations gates the host memory of a checkpoint round
// trip on a saturated paper machine (32 tiles, 7:3 read streams) whose
// image is mostly valid cache lines. A save allocates its image once,
// sized from the machine's line counts: at most 1.5 image sizes in all.
// A restore allocates what a build of the machine does, plus the copy
// of the image a caller reads and no second copy of it: at most 1.2
// image sizes beyond the build. Each window counts only its own
// goroutine's allocations (ownAlloc).
func TestCheckpointAllocations(t *testing.T) {
	scale := Scale{Name: "sat", Warmup: 100_000, Epoch: 2000, Window: 2000}
	build := func() *pabst.Builder {
		cfg := scale.Apply(pabst.Default32Config())
		b := pabst.NewBuilder(cfg, pabst.ModePABST, scale.Options()...)
		hi := b.AddClass("hi", 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways/2)
		attachStreams(b, hi, 0, 16, false)
		attachStreams(b, lo, 16, 32, false)
		return b
	}

	sys, err := warmed(context.Background(), build(), scale.Warmup)
	if err != nil {
		t.Fatal(err)
	}
	var image int
	saved := ownAlloc(func() {
		w := &countingWriter{}
		if err := sys.Checkpoint(w); err != nil {
			t.Fatal(err)
		}
		image = w.n
	})
	var img bytes.Buffer
	if err := sys.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if limit := uint64(1.5 * float64(image)); saved > limit {
		t.Errorf("saving a %d-byte image allocated %d bytes (limit %d)", image, saved, limit)
	}

	b := build()
	built := ownAlloc(func() {
		if sys, err = b.Build(); err != nil {
			t.Fatal(err)
		}
	})
	sys.Close()
	restored := ownAlloc(func() {
		// The copy stands in for the read that brings an image into
		// memory; a Buffer is restored without another.
		if sys, err = pabst.Restore(bytes.NewBuffer(bytes.Clone(img.Bytes()))); err != nil {
			t.Fatal(err)
		}
	})
	sys.Close()
	if limit := built + uint64(1.2*float64(image)); restored > limit {
		t.Errorf("restoring a %d-byte image allocated %d bytes; the build alone %d (limit %d)", image, restored, built, limit)
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// ownAlloc returns the bytes a second run of f allocates on its own
// goroutine; the first run, unmeasured, stocks the process's pools as a
// steady state has them. Every allocation of the second run is profiled,
// and those whose recorded stack passes through profiled count, so
// another goroutine's allocations in the same window do not. The profile
// keeps a stack's innermost 32 frames: an allocation deeper than that
// below profiled cannot be told apart, and counts as well.
func ownAlloc(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	f()
	before := profiledBytes()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	profiled(f)
	runtime.MemProfileRate = 0
	runtime.GC() // publishes the window's allocations to the profile
	return uint64(profiledBytes() - before)
}

//go:noinline
func profiled(f func()) { f() }

// profiledBytes sums the published profile's allocations under profiled.
func profiledBytes() (n int64) {
	recs := make([]runtime.MemProfileRecord, 512)
	k, ok := runtime.MemProfile(recs, true)
	for ; !ok; k, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, k+512)
	}
	entry := reflect.ValueOf(profiled).Pointer()
	for _, r := range recs[:k] {
		stk := r.Stack()
		if len(stk) == len(r.Stack0) || slices.ContainsFunc(stk, func(pc uintptr) bool {
			fn := runtime.FuncForPC(pc - 1)
			return fn != nil && fn.Entry() == entry
		}) {
			n += r.AllocBytes
		}
	}
	return n
}
