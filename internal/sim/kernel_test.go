package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestKernelRunAdvancesClock(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("fresh kernel Now() = %d, want 0", k.Now())
	}
	k.Run(10)
	if k.Now() != 10 {
		t.Fatalf("after Run(10) Now() = %d, want 10", k.Now())
	}
	k.Run(5)
	if k.Now() != 15 {
		t.Fatalf("after Run(5) Now() = %d, want 15", k.Now())
	}
}

// refKernel returns a reference-mode kernel with the given number of
// dispatch classes and no dispatcher.
func refKernel(classes int) *Kernel {
	k := &Kernel{Reference: true}
	k.SetEventMode(classes, nil)
	return k
}

// tickOnly is a component for the reference loop, which must never ask
// it when its next event is or replay a span it slept through.
type tickOnly func(now uint64)

func (f tickOnly) Tick(now uint64)          { f(now) }
func (tickOnly) NextEventAt(uint64) uint64  { panic("reference loop polled NextEventAt") }
func (tickOnly) FastForward(uint64, uint64) { panic("reference loop called FastForward") }

func TestKernelTickOrderAndCount(t *testing.T) {
	k := refKernel(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.RegisterEvent(0, tickOnly(func(now uint64) { order = append(order, i) }))
	}
	k.Run(2)
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("tick count = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
}

func TestKernelTickSeesCurrentCycle(t *testing.T) {
	k := refKernel(1)
	var seen []uint64
	k.RegisterEvent(0, tickOnly(func(now uint64) { seen = append(seen, now) }))
	k.Run(3)
	for i, now := range seen {
		if now != uint64(i) {
			t.Fatalf("tick %d saw now=%d", i, now)
		}
	}
}

func TestKernelEveryFiresOnSchedule(t *testing.T) {
	var k Kernel
	var fired []uint64
	k.Every(4, 2, func(now uint64) { fired = append(fired, now) })
	k.Run(12)
	want := []uint64{2, 6, 10}
	if len(fired) != len(want) {
		t.Fatalf("hook fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hook fired at %v, want %v", fired, want)
		}
	}
}

func TestKernelEveryRunsBeforeTickers(t *testing.T) {
	k := refKernel(1)
	var trace []string
	k.Every(1, 0, func(now uint64) { trace = append(trace, "hook") })
	k.RegisterEvent(0, tickOnly(func(now uint64) { trace = append(trace, "tick") }))
	k.Run(2)
	want := []string{"hook", "tick", "hook", "tick"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0, ...) did not panic")
		}
	}()
	var k Kernel
	k.Every(0, 0, func(uint64) {})
}

func TestKernelHookPhaseBeyondRun(t *testing.T) {
	var k Kernel
	count := 0
	k.Every(1, 100, func(uint64) { count++ })
	k.Run(50)
	if count != 0 {
		t.Fatalf("hook with phase 100 fired %d times within 50 cycles", count)
	}
	k.Run(55)
	if count != 5 { // cycles 100..104
		t.Fatalf("hook fired %d times, want 5", count)
	}
}

// TestKernelHooksKeepTheModuloSchedule pins the kept next-fire cycles to
// the rule they replaced — a hook fires at every executed cycle c with
// c >= phase and (c-phase)%period == 0 — in both modes, across Runs of
// uneven length, a clock overlaid between Runs (as a checkpoint load does),
// and hooks added between Runs, from inside a hook, and from inside a
// component's tick (which first fire the cycle after).
func TestKernelHooksKeepTheModuloSchedule(t *testing.T) {
	type spec struct{ period, phase, addedAt uint64 }
	for _, eventMode := range []bool{false, true} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := &Kernel{Reference: !eventMode}
			var specs []spec
			var fired [][]uint64
			add := func(addedAt uint64) {
				i := len(specs)
				specs = append(specs, spec{1 + uint64(rng.Intn(50)), uint64(rng.Intn(300)), addedAt})
				fired = append(fired, nil)
				k.Every(specs[i].period, specs[i].phase, func(now uint64) { fired[i] = append(fired[i], now) })
			}
			// The component has work at two cycles only, where it adds a
			// hook mid-cycle; the event loop skips the rest of the clock.
			tick := evTick(func(now uint64) {
				if now == 37 || now == 250 {
					add(now + 1)
				}
			})
			k.SetEventMode(1, nil)
			k.RegisterEvent(0, tick)
			add(0)
			add(0)
			k.Every(60, 20, func(now uint64) {
				if now == 80 {
					add(now + 1)
				}
			})
			var ran [][2]uint64 // executed cycle ranges
			run := func(n uint64) {
				ran = append(ran, [2]uint64{k.Now(), k.Now() + n})
				k.Run(n)
			}
			run(uint64(rng.Intn(100)))
			run(0)
			run(1 + uint64(rng.Intn(200)))
			add(k.Now())
			run(uint64(rng.Intn(100)))
			k.now += 1000 + uint64(rng.Intn(100)) // a restored clock
			add(k.Now())
			run(1 + uint64(rng.Intn(300)))

			for i, sp := range specs {
				var want []uint64
				for _, r := range ran {
					for c := r[0]; c < r[1]; c++ {
						if c >= sp.addedAt && c >= sp.phase && (c-sp.phase)%sp.period == 0 {
							want = append(want, c)
						}
					}
				}
				if !reflect.DeepEqual(fired[i], want) {
					t.Fatalf("event=%v seed %d hook %+v fired at %v, want %v", eventMode, seed, sp, fired[i], want)
				}
			}
		}
	}
}

// evTick is a Sleeper with work at cycles 37 and 250.
type evTick func(now uint64)

func (f evTick) Tick(now uint64) { f(now) }
func (f evTick) NextEventAt(from uint64) uint64 {
	switch {
	case from <= 37:
		return 37
	case from <= 250:
		return 250
	}
	return NoEvent
}
func (f evTick) FastForward(from, to uint64) {}

// TestReferenceLoopVisitsEverything pins the reference mode: every cycle
// the hooks fire, then each class that has components is handed all of
// them in registration order, in ascending class order; an empty class
// is never dispatched. It never polls NextEventAt or replays FastForward
// (tickOnly panics), and wakes and dirty marks change nothing.
func TestReferenceLoopVisitsEverything(t *testing.T) {
	k := &Kernel{Reference: true}
	type visit struct {
		now   uint64
		class int
		due   []int
	}
	var got []visit
	k.SetEventMode(3, func(now uint64, class int, due []int) {
		got = append(got, visit{now, class, append([]int(nil), due...)})
		for _, id := range due {
			k.ev.comps[id].s.Tick(now)
		}
	})
	ticks := map[int]int{}
	var ids []int
	// Registration interleaves classes 2 and 0; class 1 stays empty.
	for _, class := range []int{2, 0, 2, 0, 0} {
		var id int
		id = k.RegisterEvent(class, tickOnly(func(now uint64) {
			ticks[id]++
			k.Wake((id+1)%5, now+1_000) // ignored
		}))
		ids = append(ids, id)
	}
	k.Every(7, 3, func(now uint64) {
		for _, id := range ids {
			k.DirtyEvent(id) // ignored
		}
	})
	const cycles = 50
	k.Run(20)
	k.Run(cycles - 20)

	var want []visit
	for now := uint64(0); now < cycles; now++ {
		want = append(want, visit{now, 0, []int{1, 3, 4}}, visit{now, 2, []int{0, 2}})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatches:\n got %v\nwant %v", got, want)
	}
	for _, id := range ids {
		if ticks[id] != cycles {
			t.Errorf("component %d ticked %d times in %d cycles", id, ticks[id], cycles)
		}
	}
	if reg, vis := k.EventClassStats(); k.Skipped() != 0 || k.LateWakes() != 0 || reg != nil || vis != nil {
		t.Errorf("Skipped %d, LateWakes %d, EventClassStats %v %v; want 0, 0, nil nil",
			k.Skipped(), k.LateWakes(), reg, vis)
	}
}
