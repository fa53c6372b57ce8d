package soc

import (
	"pabst/internal/sim"
)

// This file wires the SoC onto the kernel (internal/sim/events.go):
// every component registers individually with its own next-event time,
// and per-cycle dispatch visits only the components with due work — or,
// on the reference loop (config.KernelCycle), every component.
//
// The canonical order of a cycle is written once, here: the dispatch
// classes below in ascending order — the epoch-queue drain, then the
// modeled network, then front doors + memory controllers, then L3
// slices, then tiles — each class in ascending entity index, except the
// slices, which dispatchEvents rotates. Both kernel modes go through it,
// so the components that run on a given cycle run in the same order
// whichever mode chose them.
// Cross-component pushes announce new work through the wake helpers
// below; a component's own state is re-read by the kernel after every
// dispatch, so self-scheduling needs no announcements.
const (
	evClassEpoch = iota // delayed heartbeat deliveries
	evClassNet          // modeled NoC fabric + MC response injection
	evClassMC           // front doors + memory controllers
	evClassSlice        // L3 slices
	evClassTile         // tiles
	evNumClasses
)

// evClassNames label the dispatch classes for snapshots.
var evClassNames = [evNumClasses]string{"epoch", "net", "mc", "slice", "tile"}

// registerEventComps registers one component per machine entity.
// Registration order within a class is ascending entity index — the
// canonical intra-class order — so a slice's entity index is its id
// minus the first slice's.
func (s *System) registerEventComps() {
	s.kernel.SetEventMode(evNumClasses, s.dispatchEvents)
	reg := func(class int, c sim.Sleeper) int {
		id := s.kernel.RegisterEvent(class, c)
		s.evComps = append(s.evComps, c)
		return id
	}
	s.evEpochID = reg(evClassEpoch, epochComp{s})
	s.evNetID = -1
	if s.net != nil {
		s.evNetID = reg(evClassNet, netComp{s})
	}
	s.evMCID = make([]int, len(s.mcs))
	for i := range s.mcs {
		s.evMCID[i] = reg(evClassMC, mcComp{s.doors[i]})
	}
	s.evSliceID = make([]int, len(s.slices))
	for i := range s.slices {
		s.evSliceID[i] = reg(evClassSlice, s.slices[i])
	}
	s.evTileID = make([]int, len(s.tiles))
	for i, t := range s.tiles {
		s.evTileID[i] = -1
		if t != nil {
			s.evTileID[i] = reg(evClassTile, t)
		}
	}
}

// Wake helpers: decrease-key hints, ignored by the reference loop.
// `at` is the cycle the target should run; callers pushing to a
// component whose class has already drained this cycle clamp to now+1
// themselves (see nextCycle), matching when the reference loop
// would have serviced the push.

func (s *System) wakeTile(i int, at uint64) {
	s.kernel.Wake(s.evTileID[i], at)
}

func (s *System) wakeSlice(i int, at uint64) {
	s.kernel.Wake(s.evSliceID[i], at)
}

func (s *System) wakeMC(i int, at uint64) {
	s.kernel.Wake(s.evMCID[i], at)
}

func (s *System) wakeNet(at uint64) {
	s.kernel.Wake(s.evNetID, at)
}

// Dirty helpers: post-hook rekey marks, ignored by the reference loop.
// The epoch hook calls these for every component whose schedule
// it may move — tiles receiving a synchronous heartbeat (token refills,
// resync resets), controllers hit by an injected stall or freeze (their
// next issue moves later, so the re-key drops a wake that would only
// have ticked), and the delayed-delivery queue itself.

func (s *System) dirtyTile(i int) {
	if s.evTileID[i] >= 0 {
		s.kernel.DirtyEvent(s.evTileID[i])
	}
}

func (s *System) dirtyMC(i int) {
	s.kernel.DirtyEvent(s.evMCID[i])
}

func (s *System) dirtyEpochQ() {
	s.kernel.DirtyEvent(s.evEpochID)
}

// nextCycle clamps a ready time to the next cycle for pushes whose
// target class has already run this cycle (tile→slice, slice→door,
// anyone→net): the reference loop would service those on the next
// tick too, so the clamp changes nothing except avoiding a same-cycle
// backward wake.
func (s *System) nextCycle(at uint64) uint64 {
	if now := s.kernel.Now(); at <= now {
		return now + 1
	}
	return at
}

// --- components --------------------------------------------------------

// epochComp drains delayed heartbeat deliveries (epoch jitter, gossip
// lag, injected SAT delays).
type epochComp struct{ s *System }

func (c epochComp) Tick(now uint64) { c.s.drainEpochQ(now) }
func (c epochComp) NextEventAt(from uint64) uint64 {
	if _, at, ok := c.s.epochQ.Peek(); ok {
		if at <= from {
			return from
		}
		return at
	}
	return sim.NoEvent
}
func (c epochComp) FastForward(from, to uint64) {}

// netComp advances the modeled fabric and injects completed MC
// responses. A fabric with messages in flight ticks every cycle; an
// empty one wakes on the next mcOut completion or sender injection.
type netComp struct{ s *System }

func (c netComp) Tick(now uint64) { c.s.netTick(now) }
func (c netComp) NextEventAt(from uint64) uint64 {
	next := c.s.net.NextEventAt(from)
	if next <= from {
		return from
	}
	for i := range c.s.mcOut {
		if _, at, ok := c.s.mcOut[i].Peek(); ok {
			if at <= from {
				return from
			}
			if at < next {
				next = at
			}
		}
	}
	return next
}
func (c netComp) FastForward(from, to uint64) { c.s.net.FastForward(from, to) }

// mcComp pairs one memory controller with its front door (they tick
// together, door first). The pair is due when either half can act — the
// door admit, the controller issue. A door tick that admits nothing
// changes nothing, so the ticks before that are the controller's
// accounting alone, which it replays.
type mcComp struct{ d *frontDoor }

func (c mcComp) Tick(now uint64) {
	c.d.tick(now)
	c.d.mc.Tick(now)
}
func (c mcComp) NextEventAt(from uint64) uint64 {
	return min(c.d.nextEventAt(from), c.d.mc.NextEventAt(from))
}
func (c mcComp) FastForward(from, to uint64) { c.d.mc.FastForward(from, to) }

// A *Slice is one L3 slice's component (Tick in slice.go).
func (sl *Slice) NextEventAt(from uint64) uint64 {
	next := sim.NoEvent
	if _, at, ok := sl.inbox.Peek(); ok {
		if at <= from {
			return from
		}
		next = at
	}
	if sl.sys.net != nil {
		if _, at, ok := sl.out.Peek(); ok {
			if at <= from {
				return from
			}
			if at < next {
				next = at
			}
		}
	}
	return next
}
func (sl *Slice) FastForward(from, to uint64) {}

// A *Tile is one attached tile's component: core, caches and source
// regulator (Tick in tile.go).
func (t *Tile) NextEventAt(from uint64) uint64 {
	next := sim.NoEvent
	if t.wd != nil {
		// The watchdog is a pure deadline check: before the deadline
		// every WatchdogTick is a no-op, so the tile only has to be
		// awake at the deadline cycle itself. Heartbeats push the
		// deadline later, never earlier, so a stale scheduled wake is
		// just a no-op tick.
		at := t.wd.WatchdogNextAt()
		if at <= from {
			return from
		}
		next = at
	}
	if t.queued > 0 {
		// Queued misses wait on their channel pacers: the tile sleeps
		// until the earliest grant among channels that actually hold
		// work.
		for mc := range t.missQ {
			if t.missQ[mc].Len() == 0 {
				continue
			}
			at := t.src.NextIssueAt(from, mc)
			if at <= from {
				return from
			}
			if at < next {
				next = at
			}
		}
	}
	if at := t.core.NextEventAt(from); at <= from {
		return from
	} else if at < next {
		next = at
	}
	if _, at, ok := t.inbox.Peek(); ok {
		if at <= from {
			return from
		}
		if at < next {
			next = at
		}
	}
	return next
}
func (t *Tile) FastForward(from, to uint64) { t.core.FastForward(from, to) }

// --- dispatch ----------------------------------------------------------

// dispatchEvents runs one class's due components for one cycle, in the
// canonical order. The due list arrives sorted by registration id (=
// ascending entity index), which is that order for every class but the
// slices: those are serviced from slice now%n on, wrapping, so freed MC
// credits are not always captured by the lowest-numbered slices'
// backlogs (mesh routers arbitrate fairly, not by slice index). The
// ascending due list is walked from its first slice at or past now%n.
func (s *System) dispatchEvents(now uint64, class int, due []int) {
	if class != evClassSlice {
		for _, id := range due {
			s.evComps[id].Tick(now)
		}
		return
	}
	base := s.evSliceID[0]
	start := base + int(now%uint64(len(s.slices)))
	first := 0
	for first < len(due) && due[first] < start {
		first++
	}
	for k := range due {
		s.slices[due[(first+k)%len(due)]-base].Tick(now)
	}
}
