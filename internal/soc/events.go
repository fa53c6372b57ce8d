package soc

import (
	"pabst/internal/sim"
)

// This file wires the SoC onto the kernel's event-driven mode
// (internal/sim/events.go), the production path: every component
// registers individually with its own next-event time, and per-cycle
// dispatch visits only the components with due work.
//
// Dispatch classes mirror the canonical order of System.tick — the
// epoch-queue drain, then the modeled network, then front doors +
// memory controllers, then L3 slices (in the cycle's rotated order),
// then tiles — so the components that do run on a given cycle run in
// exactly the order the reference loop would have run them.
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

// evClassName labels a dispatch class for snapshots.
func evClassName(c int) string {
	switch c {
	case evClassEpoch:
		return "epoch"
	case evClassNet:
		return "net"
	case evClassMC:
		return "mc"
	case evClassSlice:
		return "slice"
	case evClassTile:
		return "tile"
	}
	return "unknown"
}

// registerEventComps switches the kernel into event mode and registers
// one component per machine entity. Registration order within a class is
// ascending entity index — the canonical intra-class order.
func (s *System) registerEventComps() {
	s.kernel.SetEventMode(evNumClasses, s.dispatchEvents)
	s.evEntity = s.evEntity[:0]
	reg := func(class, entity int, c sim.Sleeper) int {
		id := s.kernel.RegisterEvent(class, c)
		for len(s.evEntity) <= id {
			s.evEntity = append(s.evEntity, -1)
		}
		s.evEntity[id] = entity
		return id
	}
	s.evEpochID = reg(evClassEpoch, 0, epochComp{s})
	s.evNetID = -1
	if s.net != nil {
		s.evNetID = reg(evClassNet, 0, netComp{s})
	}
	s.evMCID = make([]int, len(s.mcs))
	for i := range s.mcs {
		s.evMCID[i] = reg(evClassMC, i, mcComp{s.doors[i]})
	}
	s.evSliceID = make([]int, len(s.slices))
	for i := range s.slices {
		s.evSliceID[i] = reg(evClassSlice, i, sliceComp{s, i})
	}
	s.evTileID = make([]int, len(s.tiles))
	for i, t := range s.tiles {
		s.evTileID[i] = -1
		if t != nil {
			s.evTileID[i] = reg(evClassTile, i, tileComp{s, i})
		}
	}
	s.evOn = true
}

// Wake helpers: decrease-key hints, no-ops on the reference loop.
// `at` is the cycle the target should run; callers pushing to a
// component whose class has already drained this cycle clamp to now+1
// themselves (see nextCycle), matching when the cycle-stepped kernel
// would have serviced the push.

func (s *System) wakeTile(i int, at uint64) {
	if s.evOn {
		s.kernel.Wake(s.evTileID[i], at)
	}
}

func (s *System) wakeSlice(i int, at uint64) {
	if s.evOn {
		s.kernel.Wake(s.evSliceID[i], at)
	}
}

func (s *System) wakeMC(i int, at uint64) {
	if s.evOn {
		s.kernel.Wake(s.evMCID[i], at)
	}
}

func (s *System) wakeNet(at uint64) {
	if s.evOn {
		s.kernel.Wake(s.evNetID, at)
	}
}

// Dirty helpers: post-hook rekey marks, no-ops on the reference loop.
// The epoch hook calls these for every component whose schedule
// it may move — tiles receiving a synchronous heartbeat (token refills,
// resync resets), controllers hit by an injected stall or freeze (their
// next issue moves later, so the re-key drops a wake that would only
// have ticked), and the delayed-delivery queue itself.

func (s *System) dirtyTile(i int) {
	if s.evOn && s.evTileID[i] >= 0 {
		s.kernel.DirtyEvent(s.evTileID[i])
	}
}

func (s *System) dirtyMC(i int) {
	if s.evOn {
		s.kernel.DirtyEvent(s.evMCID[i])
	}
}

func (s *System) dirtyEpochQ() {
	if s.evOn {
		s.kernel.DirtyEvent(s.evEpochID)
	}
}

// nextCycle clamps a ready time to the next cycle for pushes whose
// target class has already run this cycle (tile→slice, slice→door,
// anyone→net): the cycle-stepped kernel would service those on the next
// tick too, so the clamp changes nothing except avoiding a same-cycle
// backward wake.
func (s *System) nextCycle(at uint64) uint64 {
	if now := s.kernel.Now(); at <= now {
		return now + 1
	}
	return at
}

// --- component adapters ------------------------------------------------

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
// together, door first, exactly as System.tick interleaves them). The
// pair is due when either half can act — the door admit, the controller
// issue. A door tick that admits nothing changes nothing, so the ticks
// before that are the controller's accounting alone, which it replays.
type mcComp struct{ d *frontDoor }

func (c mcComp) Tick(now uint64) {
	c.d.tick(now)
	c.d.mc.Tick(now)
}
func (c mcComp) NextEventAt(from uint64) uint64 {
	return min(c.d.nextEventAt(from), c.d.mc.NextEventAt(from))
}
func (c mcComp) FastForward(from, to uint64) { c.d.mc.FastForward(from, to) }

// sliceComp is one L3 slice.
type sliceComp struct {
	s  *System
	id int
}

func (c sliceComp) Tick(now uint64) { c.s.slices[c.id].tick(now) }
func (c sliceComp) NextEventAt(from uint64) uint64 {
	sl := c.s.slices[c.id]
	next := sim.NoEvent
	if _, at, ok := sl.inbox.Peek(); ok {
		if at <= from {
			return from
		}
		next = at
	}
	if c.s.net != nil {
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
func (c sliceComp) FastForward(from, to uint64) {}

// tileComp is one attached tile (core + caches + source regulator).
type tileComp struct {
	s  *System
	id int
}

func (c tileComp) Tick(now uint64) { c.s.tiles[c.id].tick(now) }
func (c tileComp) NextEventAt(from uint64) uint64 {
	t := c.s.tiles[c.id]
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
func (c tileComp) FastForward(from, to uint64) {
	c.s.tiles[c.id].core.FastForward(from, to)
}

// --- dispatch ----------------------------------------------------------

// dispatchEvents runs one class's due components for one cycle. The due
// list arrives sorted by registration id (= ascending entity index).
func (s *System) dispatchEvents(now uint64, class int, due []int) {
	switch class {
	case evClassEpoch:
		s.drainEpochQ(now)
	case evClassNet:
		s.netTick(now)
	case evClassMC:
		for _, id := range due {
			d := s.doors[s.evEntity[id]]
			d.tick(now)
			d.mc.Tick(now)
		}
	case evClassSlice:
		s.evTickSlices(now, due)
	case evClassTile:
		for _, id := range due {
			s.tiles[s.evEntity[id]].tick(now)
		}
	}
}

// evTickSlices runs the due slices in the cycle's canonical order:
// System.tick services slice (now+k)%n at position k, so the ascending
// due list is walked from its first slice at or past now%n, wrapping.
func (s *System) evTickSlices(now uint64, due []int) {
	start := int(now % uint64(len(s.slices)))
	first := 0
	for first < len(due) && s.evEntity[due[first]] < start {
		first++
	}
	for k := range due {
		s.slices[s.evEntity[due[(first+k)%len(due)]]].tick(now)
	}
}
