package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// evComp is a scripted test component: it has work at a fixed set of
// cycles, counts ticks and fast-forwarded spans, and records every cycle
// at which it was ticked so tests can compare schedules exactly.
type evComp struct {
	t       *testing.T
	id      int
	events  []uint64 // sorted cycles with real work
	i       int      // next un-consumed event index
	ticked  []uint64
	ffSpan  uint64
	horizon uint64 // cycles accounted via Tick or FastForward
	wakeals bool   // tolerate no-op ticks at non-event cycles
}

func (c *evComp) Tick(now uint64) {
	c.ticked = append(c.ticked, now)
	if now < c.horizon {
		c.t.Fatalf("comp %d ticked at %d below accounting horizon %d", c.id, now, c.horizon)
	}
	c.horizon = now + 1
	for c.i < len(c.events) && c.events[c.i] <= now {
		if c.events[c.i] < now && !c.wakeals {
			c.t.Fatalf("comp %d event at %d executed late at %d", c.id, c.events[c.i], now)
		}
		c.i++
	}
}

func (c *evComp) NextEventAt(from uint64) uint64 {
	for _, e := range c.events[c.i:] {
		if e >= from {
			return e
		}
	}
	return NoEvent
}

func (c *evComp) FastForward(from, to uint64) {
	if from != c.horizon {
		c.t.Fatalf("comp %d FastForward from %d, horizon %d", c.id, from, c.horizon)
	}
	if to < from {
		c.t.Fatalf("comp %d FastForward backwards %d -> %d", c.id, from, to)
	}
	c.ffSpan += to - from
	c.horizon = to
}

func TestEventKernelDispatchesExactly(t *testing.T) {
	var k Kernel
	k.SetEventMode(2, nil)
	a := &evComp{t: t, id: 0, events: []uint64{0, 3, 3, 17, 40}}
	b := &evComp{t: t, id: 1, events: []uint64{5, 17}}
	k.RegisterEvent(0, a)
	k.RegisterEvent(1, b)
	k.Run(50)

	wantA := []uint64{0, 3, 17, 40}
	wantB := []uint64{5, 17}
	for i, want := range [][]uint64{wantA, wantB} {
		got := []*evComp{a, b}[i].ticked
		if len(got) != len(want) {
			t.Fatalf("comp %d ticked at %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("comp %d ticked at %v, want %v", i, got, want)
			}
		}
	}
	// Every component is accounted through the full run: ticks + ff = 50.
	if a.horizon != 50 || b.horizon != 50 {
		t.Fatalf("horizons %d,%d want 50,50", a.horizon, b.horizon)
	}
	if got := uint64(len(a.ticked)) + a.ffSpan; got != 50 {
		t.Fatalf("comp 0 accounted %d cycles, want 50", got)
	}
	// The kernel executed only the union of event cycles: 0,3,5,17,40.
	if k.Skipped() != 50-5 {
		t.Fatalf("Skipped() = %d, want 45", k.Skipped())
	}
}

// TestEventKernelNeverTicksFuture is the tentpole property test: a
// component whose NextEventAt lies strictly in the future is never
// ticked by the event kernel. Randomized schedules across many seeds;
// the evComp harness fails the test on any tick at a non-event cycle
// (wakeals=false) and on any accounting gap or overlap.
func TestEventKernelNeverTicksFuture(t *testing.T) {
	const horizon = 400
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		classes := 1 + rng.Intn(3)
		k.SetEventMode(classes, nil)
		comps := make([]*evComp, 1+rng.Intn(6))
		for i := range comps {
			var evs []uint64
			c := uint64(rng.Intn(5))
			for c < horizon {
				evs = append(evs, c)
				c += 1 + uint64(rng.Intn(60))
			}
			comps[i] = &evComp{t: t, id: i, events: evs}
			k.RegisterEvent(rng.Intn(classes), comps[i])
		}
		if rng.Intn(2) == 0 {
			k.Every(1+uint64(rng.Intn(90)), uint64(rng.Intn(40)), func(uint64) {})
		}
		k.Run(horizon)
		for i, c := range comps {
			if c.i != len(c.events) {
				t.Fatalf("seed %d comp %d: %d of %d events never executed",
					seed, i, len(c.events)-c.i, len(c.events))
			}
			if c.horizon != horizon {
				t.Fatalf("seed %d comp %d horizon %d want %d", seed, i, c.horizon, horizon)
			}
			// No tick landed at a cycle without due work (late events fail
			// inside Tick; here reject early/no-op ticks too).
			for _, at := range c.ticked {
				found := false
				for _, e := range c.events {
					if e == at {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("seed %d comp %d no-op tick at %d (NextEventAt was in the future)",
						seed, i, at)
				}
			}
		}
	}
}

func TestEventKernelHooksAreBarriers(t *testing.T) {
	var k Kernel
	k.SetEventMode(1, nil)
	c := &evComp{t: t, id: 0, events: []uint64{2, 95}}
	k.RegisterEvent(0, c)
	var hookAt []uint64
	k.Every(30, 10, func(now uint64) {
		hookAt = append(hookAt, now)
		// Barrier contract: the component is fully accounted before the
		// hook observes it.
		if c.horizon != now {
			t.Fatalf("hook at %d sees horizon %d, want %d", now, c.horizon, now)
		}
	})
	k.Run(100)
	want := []uint64{10, 40, 70}
	if len(hookAt) != len(want) {
		t.Fatalf("hooks fired at %v, want %v", hookAt, want)
	}
	for i := range want {
		if hookAt[i] != want[i] {
			t.Fatalf("hooks fired at %v, want %v", hookAt, want)
		}
	}
}

// TestEventKernelWake verifies the decrease-key path: a component parked
// far in the future is pulled forward by Wake and dispatched at the
// woken cycle.
func TestEventKernelWake(t *testing.T) {
	var k Kernel
	k.SetEventMode(2, nil)
	// Producer (class 0) has work at 5; consumer (class 1) believes it is
	// idle until 300 but the producer wakes it for cycle 6.
	consumer := &evComp{t: t, id: 1, events: []uint64{300}, wakeals: true}
	p := &evComp{t: t, id: 0, events: []uint64{5}}
	k.RegisterEvent(0, p)
	consumerID := k.RegisterEvent(1, consumer)
	k.ev.dispatch = func(now uint64, class int, due []int) {
		for _, id := range due {
			k.ev.comps[id].s.Tick(now)
			if class == 0 && now == 5 {
				k.Wake(consumerID, 6)
			}
		}
	}
	k.Run(400)
	if len(consumer.ticked) == 0 || consumer.ticked[0] != 6 {
		t.Fatalf("consumer ticked at %v, want first tick at 6", consumer.ticked)
	}
	if k.LateWakes() != 0 {
		t.Fatalf("LateWakes = %d, want 0", k.LateWakes())
	}
}

// TestEventKernelResync: a clock overlay between Runs — a checkpoint
// restore moving the clock and the component state — is re-keyed by Run
// alone. The component's new work is dispatched on time, and no span
// before the restored clock is fast-forwarded.
func TestEventKernelResync(t *testing.T) {
	for _, restoredAt := range []uint64{4, 1_000} { // back and forward
		var k Kernel
		k.SetEventMode(1, nil)
		c := &evComp{t: t, id: 0, events: []uint64{0, 50}}
		k.RegisterEvent(0, c)
		k.Run(10)
		// The restore overlays new state at the new clock: the component
		// now has work 10 cycles on that the schedule does not know about.
		k.now = restoredAt
		c.events, c.i, c.horizon, c.ffSpan = []uint64{restoredAt + 10}, 0, restoredAt, 0
		k.Run(30)
		if want := []uint64{0, restoredAt + 10}; !reflect.DeepEqual(c.ticked, want) {
			t.Fatalf("clock overlaid to %d: ticks %v, want %v", restoredAt, c.ticked, want)
		}
		if c.ffSpan != 29 {
			t.Fatalf("clock overlaid to %d: fast-forwarded %d cycles, want 29", restoredAt, c.ffSpan)
		}
	}
}
