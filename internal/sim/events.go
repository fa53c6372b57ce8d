package sim

import (
	"math/bits"
	"slices"
)

// This file implements the kernel's scheduling: each component is
// registered individually with its own next-event time and a cycle
// visits only the components with due work. Ticking a component before
// its NextEventAt is exactly FastForward over that cycle (the Sleeper
// contract), so skipping it and catching it up later is invisible in
// every simulated outcome — which the differential tests check against
// the reference mode (runReference), the same registration and
// dispatcher with every component due every cycle.
//
// Scheduling structure. Each dispatch class keeps a timing wheel of
// wheelW one-cycle buckets covering [now, now+wheelW): schedule,
// decrease-key (wake), and per-cycle drain are all O(1) in the near
// future, which is the overwhelmingly common case (DRAM latencies,
// pacer grants, hop delays). Events at or beyond the wheel horizon —
// watchdog deadlines, long idle gaps — land in an unsorted per-class
// overflow ring with a lazily tracked minimum and are bulk-migrated
// into the wheel when the clock window reaches them, so each far-future
// event is touched O(1) amortized times. A per-wheel occupancy bitmap
// makes the idle-jump scan O(wheelW/64) words instead of O(wheelW)
// buckets. Buckets and the overflow set are intrusive doubly linked
// lists threaded through the components themselves, so scheduling
// allocates nothing once registration is done, however many components
// land in one bucket.
//
// Ordering. Bit-identity requires that the components ticked on a given
// cycle run in exactly the order the reference mode would have run
// them. The kernel models this as dispatch classes drained in ascending
// class order; within a class the due set is handed to the dispatcher
// sorted by registration id, and the dispatcher applies any
// cycle-dependent permutation itself (the SoC rotates its L3-slice
// order). Same-cycle wakes may only target classes that have not yet
// drained this cycle — the SoC's dataflow (epoch → network → memory
// controllers → slices → tiles, with every backward edge carrying at
// least one cycle of modeled latency) guarantees this; the kernel counts
// any violation in LateWakes rather than diverging silently, and a wake
// landing on an already-drained class is deferred to the next cycle —
// exactly when the per-class drain would first have seen it.
//
// Accounting. Components are fast-forwarded lazily: each tracks the
// cycle through which it has accounted (ticked or fast-forwarded), and
// is caught up immediately before it is next ticked. Periodic hooks are
// synchronization barriers for *reads* — every component is caught up
// before a hook fires, so epoch-boundary observations (saturation
// windows, governor probes, metrics) see exactly the state the
// reference mode would have produced. Hook *writes* that could
// create earlier work for a sleeping component (heartbeat deliveries,
// injected controller faults) are announced through DirtyEvent; only the
// marked components are re-keyed after the hooks run, so the barrier
// costs work proportional to what the hooks actually touched.

const (
	wheelBits = 10
	// wheelW is the timing-wheel horizon in cycles. Events scheduled
	// within wheelW of the clock go to a bucket; later ones overflow.
	wheelW    = 1 << wheelBits
	wheelMask = wheelW - 1
)

// eventComp location sentinels (eventComp.where); non-negative values
// are wheel bucket indices.
const (
	whereParked   = -1 // key == NoEvent: not queued anywhere
	whereOverflow = -2 // in its class's overflow list
	whereDispatch = -3 // popped for this cycle's dispatch
)

// nilComp terminates the intrusive bucket and overflow lists.
const nilComp = -1

// eventComp is one registered component's scheduling state.
type eventComp struct {
	s      Sleeper
	class  int
	key    uint64 // scheduled next-event cycle (NoEvent while parked)
	where  int32  // bucket index, or a where* sentinel
	next   int32  // neighbours in its bucket or overflow list (nilComp at the ends)
	prev   int32
	synced uint64 // cycles < synced are accounted (ticked or fast-forwarded)
	dirty  bool   // queued in dirtyList for the post-hook rekey
}

// classQ is one dispatch class's schedule: a timing wheel for the near
// future plus an unsorted overflow list for events past the horizon.
type classQ struct {
	heads    [wheelW]int32 // bucket b lists the ids keyed to the unique in-window cycle ≡ b (mod wheelW)
	bitmap   [wheelW / 64]uint64
	bucketed int // live ids across all buckets

	ovHead int32
	ovMin  uint64 // lower bound on the overflow minimum key (exact after migrate)

	registered int    // components registered under this class
	visited    uint64 // cumulative component dispatches

	members []int // ids in registration order; reference mode only
}

// events is the kernel's scheduling state.
type events struct {
	comps     []eventComp
	classes   []classQ
	due       []int // per-cycle scratch
	dirtyList []int // hook-marked components awaiting rekey
	dispatch  func(now uint64, class int, due []int)

	// curClass is the class currently being drained this cycle (-1
	// outside the drain loop): inserts at or before the current cycle
	// targeting an already-drained class defer to the next cycle.
	curClass int

	lateWakes uint64
}

// SetEventMode sets up the given number of dispatch classes. dispatch
// receives each cycle's due components one class at a time, in ascending
// class order, sorted by registration id; it must tick every component
// it is handed (skipping one would silently drop its work). A nil
// dispatch ticks due components directly. Call before RegisterEvent.
func (k *Kernel) SetEventMode(classes int, dispatch func(now uint64, class int, due []int)) {
	k.ev = &events{
		classes:  make([]classQ, classes),
		dispatch: dispatch,
		curClass: -1,
	}
	for c := range k.ev.classes {
		k.ev.classes[c].reset()
	}
}

// RegisterEvent adds a component under a dispatch class and returns its
// id (the Wake handle). Registration order within a class defines the
// canonical intra-class dispatch order.
func (k *Kernel) RegisterEvent(class int, s Sleeper) int {
	ev := k.ev
	if ev == nil {
		panic("sim: RegisterEvent before SetEventMode")
	}
	if class < 0 || class >= len(ev.classes) {
		panic("sim: RegisterEvent class out of range")
	}
	id := len(ev.comps)
	ev.comps = append(ev.comps, eventComp{s: s, class: class, key: NoEvent, where: whereParked, synced: k.now})
	ev.classes[class].registered++
	// Both scratch lists hold each component at most once, so sizing them
	// here keeps every later cycle allocation-free.
	ev.due = slices.Grow(ev.due[:0], len(ev.comps))
	if k.Reference {
		ev.classes[class].members = append(ev.classes[class].members, id)
		return id
	}
	ev.dirtyList = slices.Grow(ev.dirtyList, len(ev.comps)-len(ev.dirtyList))
	ev.pushClamped(id, s.NextEventAt(k.now), k.now)
	return id
}

// Wake tells the kernel a component may have work at cycle `at` —
// called at every cross-component push site, because a sleeping
// component is never re-polled. NextEventAt remains authoritative:
// waking an idle component early is a harmless no-op tick, and a
// component's own new work is re-read after every dispatch. Wakes are
// clamped to cycles the component has not yet accounted; a clamped wake
// at or before the current cycle is counted in LateWakes. The reference
// loop ignores wakes: every component is due every cycle.
func (k *Kernel) Wake(id int, at uint64) {
	ev := k.ev
	if ev == nil || k.Reference {
		return
	}
	ec := &ev.comps[id]
	if at < ec.synced {
		if at <= k.now {
			ev.lateWakes++
		}
		at = ec.synced
	}
	if ec.where == whereDispatch || at >= ec.key {
		// Mid-dispatch (re-keyed from NextEventAt afterwards) or not an
		// improvement.
		return
	}
	ev.remove(id)
	ev.insert(id, at, k.now)
}

// DirtyEvent marks a component whose schedule-relevant state the
// currently running periodic hook mutates (heartbeat deliveries that
// refill issue tokens, injected controller freezes): it is re-keyed
// from NextEventAt when the hook barrier finishes, so a sleeping
// component learns about hook-created earlier work. Cheap and
// idempotent. Outside hooks, use Wake. The reference loop ignores it.
func (k *Kernel) DirtyEvent(id int) {
	ev := k.ev
	if ev == nil || k.Reference {
		return
	}
	ec := &ev.comps[id]
	if ec.dirty {
		return
	}
	ec.dirty = true
	ev.dirtyList = append(ev.dirtyList, id)
}

// LateWakes returns how many wakes targeted an already-dispatched cycle
// (a violation of the forward-only same-cycle dataflow contract; always
// zero for the SoC's component graph).
func (k *Kernel) LateWakes() uint64 {
	if k.ev == nil {
		return 0
	}
	return k.ev.lateWakes
}

// EventClassStats reports, for each dispatch class, how many components
// are registered under it and how many component dispatches it has run
// in total. visited[c] / (Now() × registered[c]) is the class's dispatch
// occupancy — the fraction of component-cycles the event kernel actually
// paid for; the reference loop's is 1.0 by construction, and it reports
// nil.
func (k *Kernel) EventClassStats() (registered []int, visited []uint64) {
	ev := k.ev
	if ev == nil || k.Reference {
		return nil, nil
	}
	registered = make([]int, len(ev.classes))
	visited = make([]uint64, len(ev.classes))
	for c := range ev.classes {
		registered[c] = ev.classes[c].registered
		visited[c] = ev.classes[c].visited
	}
	return registered, visited
}

// runReference is the reference Run loop: hooks, then every registered
// component class by class in registration order, then the next cycle.
// It polls no NextEventAt, replays no FastForward and skips nothing, so
// the only thing it shares with runEvents is the dispatcher — the order
// the components of one cycle run in.
func (k *Kernel) runReference(end uint64) {
	ev := k.ev
	for ; k.now < end; k.now++ {
		k.fireHooks(k.now)
		for c := range ev.classes {
			if ids := ev.classes[c].members; len(ids) > 0 {
				// A copy: the dispatcher may reorder what it is handed.
				ev.tick(k.now, c, append(ev.due[:0], ids...))
			}
		}
	}
}

// runEvents is the production Run loop.
func (k *Kernel) runEvents(end uint64) {
	ev := k.ev
	// Re-derive every key and accounting horizon on entry: callers may
	// mutate component state between Run calls (restores, warmups, stat
	// resets, test scaffolding) without issuing wakes, and a restore
	// moves the clock. O(components) once per Run, not per cycle.
	for id := range ev.comps {
		ev.comps[id].synced = k.now
	}
	k.rekeyAll(k.now)
	for k.now < end {
		now := k.now
		ev.migrate(now)
		if k.nextHookAt() == now {
			// Hooks are synchronization barriers: every component is
			// caught up before a hook reads, and the components a hook
			// writes (DirtyEvent) are re-keyed from ground truth after,
			// so hook-driven state changes reschedule sleepers.
			k.syncAll(now)
			k.fireHooks(now)
			ev.flushDirty(now)
		}
		for c := range ev.classes {
			ev.curClass = c
			due := ev.popDue(c, now)
			if len(due) == 0 {
				continue
			}
			for _, id := range due {
				ev.catchUp(id, now)
			}
			ev.tick(now, c, due)
			for _, id := range due {
				ec := &ev.comps[id]
				ec.synced = now + 1
				ev.pushClamped(id, ec.s.NextEventAt(now+1), now)
			}
		}
		ev.curClass = -1
		k.now++
		if k.now >= end {
			break
		}
		// Jump the clock to the earliest scheduled event or hook.
		t := end
		if m := ev.minKeyAll(k.now); m < t {
			t = m
		}
		if h := k.nextHookAt(); h < t {
			t = h
		}
		if t > k.now {
			k.skipped += t - k.now
			k.now = t
		}
	}
	// Leave every component accounted through the end of the run, so
	// cycle-derived statistics (IPC, utilization windows) are exact.
	k.syncAll(end)
}

// tick runs class c's due components for cycle now: through the
// dispatcher, or directly in the order given without one.
func (ev *events) tick(now uint64, c int, due []int) {
	if ev.dispatch != nil {
		ev.dispatch(now, c, due)
		return
	}
	for _, id := range due {
		ev.comps[id].s.Tick(now)
	}
}

// syncAll fast-forwards every component's accounting through cycle `to`.
func (k *Kernel) syncAll(to uint64) {
	ev := k.ev
	for id := range ev.comps {
		ev.catchUp(id, to)
	}
}

// rekeyAll rebuilds every component's schedule from NextEventAt at cycle
// `from`. Run entry only; steady state uses dirty-set rekey.
func (k *Kernel) rekeyAll(from uint64) {
	ev := k.ev
	for c := range ev.classes {
		ev.classes[c].reset()
	}
	ev.curClass = -1
	ev.dirtyList = ev.dirtyList[:0]
	for id := range ev.comps {
		ec := &ev.comps[id]
		ec.dirty = false
		ec.where = whereParked
		ec.key = NoEvent
		ev.pushClamped(id, ec.s.NextEventAt(from), from)
	}
}

// flushDirty re-keys the components the hooks marked, at cycle now.
func (ev *events) flushDirty(now uint64) {
	for _, id := range ev.dirtyList {
		ec := &ev.comps[id]
		ec.dirty = false
		if ec.where == whereDispatch {
			continue // being dispatched; re-keyed afterwards anyway
		}
		ev.remove(id)
		ev.pushClamped(id, ec.s.NextEventAt(now), now)
	}
	ev.dirtyList = ev.dirtyList[:0]
}

// catchUp accounts component id for the unticked cycles before `to`.
func (ev *events) catchUp(id int, to uint64) {
	ec := &ev.comps[id]
	if ec.synced < to {
		ec.s.FastForward(ec.synced, to)
		ec.synced = to
	}
}

// pushClamped (re)schedules component id. Keys are clamped to the
// component's accounting horizon so a conservative NextEventAt can
// never schedule an already-accounted cycle.
func (ev *events) pushClamped(id int, at, now uint64) {
	ec := &ev.comps[id]
	if at < ec.synced {
		at = ec.synced
	}
	ev.insert(id, at, now)
}

// insert queues component id for cycle `at`. Keys at or before the
// current cycle go to the current cycle's bucket while the component's
// class has not drained yet, and to the next cycle otherwise — exactly
// when the per-class drain would first have seen the key.
func (ev *events) insert(id int, at, now uint64) {
	ec := &ev.comps[id]
	if at == NoEvent {
		ec.key = NoEvent
		ec.where = whereParked
		return
	}
	if at <= now {
		if ec.class <= ev.curClass {
			at = now + 1
		} else {
			at = now
		}
	}
	ec.key = at
	q := &ev.classes[ec.class]
	if at-now < wheelW {
		ev.linkBucket(q, int32(id), int32(at&wheelMask))
		return
	}
	ec.where = whereOverflow
	ev.link(&q.ovHead, int32(id))
	if at < q.ovMin {
		q.ovMin = at
	}
}

// reset empties the class's wheel and overflow list. The components'
// own links are stale afterwards; the caller parks or re-inserts them.
func (q *classQ) reset() {
	for b := range q.heads {
		q.heads[b] = nilComp
	}
	q.bitmap = [wheelW / 64]uint64{}
	q.bucketed = 0
	q.ovHead, q.ovMin = nilComp, NoEvent
}

// link pushes component id onto the front of the list at *head. List
// order is immaterial: popDue sorts and the overflow list is a set.
func (ev *events) link(head *int32, id int32) {
	ec := &ev.comps[id]
	ec.prev, ec.next = nilComp, *head
	if *head != nilComp {
		ev.comps[*head].prev = id
	}
	*head = id
}

// unlink removes component id from the list at *head.
func (ev *events) unlink(head *int32, id int32) {
	ec := &ev.comps[id]
	if ec.prev != nilComp {
		ev.comps[ec.prev].next = ec.next
	} else {
		*head = ec.next
	}
	if ec.next != nilComp {
		ev.comps[ec.next].prev = ec.prev
	}
}

// linkBucket queues component id in wheel bucket b.
func (ev *events) linkBucket(q *classQ, id, b int32) {
	ev.comps[id].where = b
	ev.link(&q.heads[b], id)
	q.bitmap[b>>6] |= 1 << uint(b&63)
	q.bucketed++
}

// remove unqueues component id from its bucket or overflow list (no-op
// while parked), leaving it parked.
func (ev *events) remove(id int) {
	ec := &ev.comps[id]
	q := &ev.classes[ec.class]
	switch {
	case ec.where >= 0:
		b := ec.where
		ev.unlink(&q.heads[b], int32(id))
		if q.heads[b] == nilComp {
			q.bitmap[b>>6] &^= 1 << uint(b&63)
		}
		q.bucketed--
	case ec.where == whereOverflow:
		ev.unlink(&q.ovHead, int32(id))
		if q.ovHead == nilComp {
			q.ovMin = NoEvent
		}
	}
	ec.where = whereParked
	ec.key = NoEvent
}

// migrate moves overflow events that have entered the wheel horizon into
// their buckets. Runs once per executed cycle; the ovMin bound makes it
// a two-word check when nothing is close.
func (ev *events) migrate(now uint64) {
	for c := range ev.classes {
		q := &ev.classes[c]
		if q.ovHead == nilComp || q.ovMin >= now+wheelW {
			continue
		}
		newMin := uint64(NoEvent)
		for id := q.ovHead; id != nilComp; {
			ec := &ev.comps[id]
			next := ec.next
			if ec.key-now < wheelW {
				ev.unlink(&q.ovHead, id)
				ev.linkBucket(q, id, int32(ec.key&wheelMask))
			} else if ec.key < newMin {
				newMin = ec.key
			}
			id = next
		}
		q.ovMin = newMin
	}
}

// popDue drains class c's bucket for cycle now, returning the due ids
// sorted by registration id (the canonical intra-class order). Every id
// in the bucket is keyed exactly to now: bucketed keys always lie in
// [now, now+wheelW) — the clock never jumps past a scheduled key — and
// within that window the bucket index determines the cycle uniquely.
func (ev *events) popDue(c int, now uint64) []int {
	q := &ev.classes[c]
	b := int32(now & wheelMask)
	if q.heads[b] == nilComp {
		return nil
	}
	due := ev.due[:0]
	for id := q.heads[b]; id != nilComp; id = ev.comps[id].next {
		ev.comps[id].where = whereDispatch
		due = append(due, int(id))
	}
	q.heads[b] = nilComp
	q.bitmap[b>>6] &^= 1 << uint(b&63)
	q.bucketed -= len(due)
	if len(due) > 1 {
		slices.Sort(due)
	}
	q.visited += uint64(len(due))
	return due // aliases ev.due; valid until the next popDue
}

// minKeyAll returns the earliest scheduled key across all classes at or
// after now (NoEvent when everything is parked). Overflow rings
// contribute their lazy minimum — a lower bound, so the clock can only
// undershoot, never skip work; the landing cycle's migrate tightens it.
func (ev *events) minKeyAll(now uint64) uint64 {
	min := uint64(NoEvent)
	for c := range ev.classes {
		q := &ev.classes[c]
		if q.ovHead != nilComp && q.ovMin < min {
			min = q.ovMin
		}
		if q.bucketed > 0 {
			if k := q.minBucketKey(now); k < min {
				min = k
			}
		}
	}
	return min
}

// minBucketKey scans the occupancy bitmap circularly from now's slot for
// the first non-empty bucket; since all bucketed keys lie in
// [now, now+wheelW), that bucket holds the class minimum.
func (q *classQ) minBucketKey(now uint64) uint64 {
	start := int(now & wheelMask)
	w := start >> 6
	word := q.bitmap[w] &^ (1<<uint(start&63) - 1)
	for i := 0; i <= len(q.bitmap); i++ {
		if word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			d := b - start
			if d < 0 {
				d += wheelW
			}
			return now + uint64(d)
		}
		w++
		if w == len(q.bitmap) {
			w = 0
		}
		word = q.bitmap[w]
	}
	return NoEvent
}
