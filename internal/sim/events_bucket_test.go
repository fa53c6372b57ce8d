package sim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// These tests pin the bucket-queue internals of the event scheduler:
// the timing wheel covers [now, now+wheelW) and everything beyond it
// lives in the overflow list, so each test steers events across that
// boundary and asserts the dispatch schedule is unaffected.

// TestEventKernelOverflowMigration schedules an event far beyond the
// wheel horizon: it must sit in overflow, let the clock jump straight
// to it, and dispatch exactly on time after migration.
func TestEventKernelOverflowMigration(t *testing.T) {
	if 5000-6 < wheelW {
		t.Fatalf("test assumes 5000 is beyond the wheel horizon %d", wheelW)
	}
	var k Kernel
	k.SetEventMode(1, nil)
	c := &evComp{t: t, id: 0, events: []uint64{5, 5000}}
	k.RegisterEvent(0, c)
	k.Run(6000)

	want := []uint64{5, 5000}
	if len(c.ticked) != len(want) || c.ticked[0] != want[0] || c.ticked[1] != want[1] {
		t.Fatalf("ticked at %v, want %v", c.ticked, want)
	}
	if c.horizon != 6000 {
		t.Fatalf("horizon %d, want 6000", c.horizon)
	}
	// Executed cycles: 0 (run entry), 5, and 5000.
	if k.Skipped() != 6000-3 {
		t.Fatalf("Skipped() = %d, want %d", k.Skipped(), 6000-3)
	}
}

// TestEventKernelWakeFromOverflow pulls a far-future (overflow-resident)
// component into the near-future wheel via Wake: the decrease-key must
// cross the wheel/overflow boundary cleanly.
func TestEventKernelWakeFromOverflow(t *testing.T) {
	var k Kernel
	k.SetEventMode(2, nil)
	p := &evComp{t: t, id: 0, events: []uint64{10}}
	consumer := &evComp{t: t, id: 1, events: []uint64{5000}, wakeals: true}
	k.RegisterEvent(0, p)
	consumerID := k.RegisterEvent(1, consumer)
	k.ev.dispatch = func(now uint64, class int, due []int) {
		for _, id := range due {
			k.ev.comps[id].s.Tick(now)
			if class == 0 && now == 10 {
				k.Wake(consumerID, 12)
			}
		}
	}
	k.Run(6000)
	if len(consumer.ticked) == 0 || consumer.ticked[0] != 12 {
		t.Fatalf("consumer ticked at %v, want first tick at 12", consumer.ticked)
	}
	// The original far-future event must survive the early no-op wake.
	if consumer.i != len(consumer.events) {
		t.Fatalf("consumer event at 5000 never executed; ticks %v", consumer.ticked)
	}
	if k.LateWakes() != 0 {
		t.Fatalf("LateWakes = %d, want 0", k.LateWakes())
	}
}

// TestEventKernelLateWakeCounted drives the one illegal wake shape — a
// wake targeting a cycle the component has already accounted — and
// asserts it is counted in LateWakes and deferred to the next cycle
// rather than silently dropped or double-dispatched.
func TestEventKernelLateWakeCounted(t *testing.T) {
	var k Kernel
	k.SetEventMode(2, nil)
	// a (class 0) drains before b (class 1) each cycle; b waking a for
	// the current cycle is therefore a backward edge.
	a := &evComp{t: t, id: 0, events: []uint64{5}, wakeals: true}
	b := &evComp{t: t, id: 1, events: []uint64{5}}
	aID := k.RegisterEvent(0, a)
	k.RegisterEvent(1, b)
	k.ev.dispatch = func(now uint64, class int, due []int) {
		for _, id := range due {
			k.ev.comps[id].s.Tick(now)
			if class == 1 && now == 5 {
				k.Wake(aID, 5)
			}
		}
	}
	k.Run(20)
	if k.LateWakes() != 1 {
		t.Fatalf("LateWakes = %d, want 1", k.LateWakes())
	}
	want := []uint64{5, 6}
	if len(a.ticked) != len(want) || a.ticked[0] != want[0] || a.ticked[1] != want[1] {
		t.Fatalf("a ticked at %v, want %v (late wake defers to the next cycle)", a.ticked, want)
	}
}

// TestEventKernelDirtyRekey mutates a sleeping component's schedule from
// a periodic hook and announces it with DirtyEvent: the post-hook rekey
// must discover the hook-created earlier work.
func TestEventKernelDirtyRekey(t *testing.T) {
	var k Kernel
	k.SetEventMode(1, nil)
	c := &evComp{t: t, id: 0, events: []uint64{200}}
	id := k.RegisterEvent(0, c)
	k.Every(30, 30, func(now uint64) {
		if now != 30 {
			return
		}
		// Overlay new state: work appears at cycle 40, which the
		// scheduler only learns about through the dirty mark.
		c.events = []uint64{40, 200}
		k.DirtyEvent(id)
		k.DirtyEvent(id) // idempotent
	})
	k.Run(300)
	want := []uint64{40, 200}
	if len(c.ticked) != len(want) || c.ticked[0] != want[0] || c.ticked[1] != want[1] {
		t.Fatalf("ticked at %v, want %v", c.ticked, want)
	}
}

// TestEventKernelClassStats checks the dispatch-occupancy counters: one
// component per class, visited = its number of dispatched events.
func TestEventKernelClassStats(t *testing.T) {
	var k Kernel
	k.SetEventMode(2, nil)
	a := &evComp{t: t, id: 0, events: []uint64{1, 4, 9}}
	b := &evComp{t: t, id: 1, events: []uint64{7, 9}}
	k.RegisterEvent(0, a)
	k.RegisterEvent(1, b)
	k.Run(20)
	reg, vis := k.EventClassStats()
	if len(reg) != 2 || reg[0] != 1 || reg[1] != 1 {
		t.Fatalf("registered = %v, want [1 1]", reg)
	}
	if len(vis) != 2 || vis[0] != 3 || vis[1] != 2 {
		t.Fatalf("visited = %v, want [3 2]", vis)
	}
}

// stepComp has work every period cycles and, unlike evComp, records
// nothing, so any allocation while it runs is the scheduler's.
type stepComp struct{ period, next uint64 }

func (c *stepComp) Tick(now uint64) {
	if now >= c.next {
		c.next = now + c.period
	}
}
func (c *stepComp) NextEventAt(from uint64) uint64 { return max(from, c.next) }
func (c *stepComp) FastForward(from, to uint64)    {}

// ownMallocs counts the heap objects f allocates on its own goroutine,
// with no warm-up call: the contract under test starts at the end of
// registration. Every allocation in the window is profiled, and those
// whose recorded stack passes through profiled count, so another
// goroutine's allocations in the same window do not. The profile keeps
// a stack's innermost 32 frames: an allocation deeper than that below
// profiled cannot be told apart, and counts as well.
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

// TestEventWheelZeroAllocAfterRegistration pins the wheel's storage
// contract: once registration is done, insert, wake, remove, popDue,
// migrate and the dirty rekey allocate nothing — including the worst
// case of a whole class landing in one bucket.
func TestEventWheelZeroAllocAfterRegistration(t *testing.T) {
	const comps = 300
	build := func(period uint64) (*Kernel, []int) {
		k := &Kernel{}
		k.SetEventMode(2, nil)
		ids := make([]int, comps)
		for i := range ids {
			ids[i] = k.RegisterEvent(i%2, &stepComp{period: period, next: period})
		}
		return k, ids
	}

	t.Run("dense", func(t *testing.T) {
		// Every component due every cycle: each class's whole population
		// is popped from, and re-inserted into, a single bucket.
		k, _ := build(1)
		if n := ownMallocs(func() { k.Run(3 * wheelW) }); n != 0 {
			t.Fatalf("%d allocations over %d dense cycles, want 0", n, 3*wheelW)
		}
	})

	t.Run("overflow-wake-dirty", func(t *testing.T) {
		// Periods beyond the horizon park everything in overflow; wakes
		// pull all of it into one near bucket (remove + insert), the hook
		// rekeys it through the dirty set, and later periods migrate back.
		k, ids := build(3 * wheelW)
		k.Every(500, 500, func(uint64) {
			for _, id := range ids {
				k.DirtyEvent(id)
			}
		})
		n := ownMallocs(func() {
			for round := 0; round < 4; round++ {
				for _, id := range ids {
					k.Wake(id, k.Now()+7)
				}
				k.Run(4 * wheelW)
			}
		})
		if n != 0 {
			t.Fatalf("%d allocations across overflow, wake and dirty rekey, want 0", n)
		}
		if _, visited := k.EventClassStats(); visited[0] == 0 || visited[1] == 0 {
			t.Fatalf("nothing dispatched: visited = %v", visited)
		}
	})
}
