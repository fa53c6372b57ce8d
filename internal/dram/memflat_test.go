package dram

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pabst/internal/mem"
)

// TestControllerMemoryFlatSteadyState regresses two leaks at once: the
// old readQ memmove dequeue retained the last *mem.Packet in the slice's
// trailing slot, and every arrival heap-allocated a packet. With the
// indexed queues and a recycling pool, a saturated controller must run
// millions of cycles without a single heap allocation once warm.
func TestControllerMemoryFlatSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-cycle soak")
	}
	cfg := testCfg()
	cfg.Policy = OpenPage

	var pool mem.Pool
	mc, err := NewController(0, cfg, func(p *mem.Packet, _ uint64) { pool.Put(p) })
	if err != nil {
		t.Fatal(err)
	}
	mc.SetReleaser(pool.Put)

	seq := 0
	drive := func(start, cycles uint64) uint64 {
		for now := start; now < start+cycles; now++ {
			for mc.TryReserveRead() {
				p := pool.Get()
				// Mix row hits, conflicts, and bank spread.
				p.Addr = mem.Addr(uint64(seq%(cfg.Banks*4)*cfg.RowLines+seq%2) * mem.LineSize)
				p.Kind = mem.Read
				p.Class = mem.ClassID(seq % 4)
				seq++
				mc.ArriveRead(p, now)
			}
			if seq%7 == 0 && mc.TryReserveWrite() {
				p := pool.Get()
				p.Addr = mem.Addr(uint64(seq%(cfg.Banks*4)*cfg.RowLines) * mem.LineSize)
				p.Kind = mem.Writeback
				seq++
				mc.ArriveWrite(p, now)
			}
			mc.Tick(now)
		}
		return start + cycles
	}

	// Warmup: the pool fills, every ring and heap reaches its
	// steady-state capacity.
	now := drive(0, 200_000)

	// A handful of allocations can come from the runtime itself; the old
	// implementation allocated one packet per miss (millions here).
	if d := ownMallocs(func() { drive(now, 10_000_000) }); d > 100 {
		t.Fatalf("steady-state controller allocated %d objects over 10M cycles", d)
	}
	if mc.Stats.ReadsServed == 0 || mc.Stats.WritesServed == 0 {
		t.Fatal("soak served no traffic; test is vacuous")
	}
}

// ownMallocs counts the heap objects f allocates on its own goroutine.
// Every allocation in the window is profiled, and those whose recorded
// stack passes through profiled count, so another goroutine's
// allocations in the same window do not. The profile keeps a stack's
// innermost 32 frames: an allocation deeper than that below profiled
// cannot be told apart, and counts as well.
func ownMallocs(f func()) int64 {
	before := profiledObjects()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	profiled(f)
	runtime.MemProfileRate = 0
	runtime.GC() // publishes the window's allocations to the profile
	return profiledObjects() - before
}

//go:noinline
func profiled(f func()) { f() }

// profiledObjects sums the published profile's allocations under
// profiled.
func profiledObjects() (n int64) {
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
			n += r.AllocObjects
		}
	}
	return n
}
