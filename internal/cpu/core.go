package cpu

import (
	"fmt"

	"pabst/internal/mem"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// Config sizes a core.
type Config struct {
	// WindowOps bounds in-flight memory ops (ROB/LSQ proxy).
	WindowOps int
	// IssueWidth is the number of ready ops the core may send to its
	// cache per cycle.
	IssueWidth int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.WindowOps <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("cpu: window and issue width must be positive: %+v", c)
	}
	return nil
}

// AccessStatus is the cache's immediate answer to an access.
type AccessStatus uint8

const (
	// AccessDone means the op completed locally (private-cache hit); the
	// completion cycle was returned.
	AccessDone AccessStatus = iota
	// AccessPending means the op missed and is in flight; the port will
	// call Core.CompleteMiss with the returned token.
	AccessPending
	// AccessBlocked means the cache cannot accept the op now (MSHRs
	// full) and changed nothing; the core retries it on a later cycle.
	AccessBlocked
)

// MemPort is the core's view of its tile's memory hierarchy.
type MemPort interface {
	// Access issues one memory op at cycle now. token identifies the op;
	// on AccessPending the port must eventually call Core.CompleteMiss
	// with the same token. For AccessDone, doneAt is the completion
	// cycle.
	Access(addr mem.Addr, write bool, now uint64, token uint64) (status AccessStatus, doneAt uint64)
}

type slotState uint8

const (
	slotWaitDep slotState = iota
	slotWaitGap
	slotReady
	slotIssued
	slotDone
)

type slot struct {
	op      workload.Op
	seq     uint64
	fetchAt uint64 // program-order fetch-ready cycle
	doneAt  uint64 // valid once state == slotDone
	waiter  uint64 // seq of the single op waiting on us
	state   slotState
	hasWait bool
}

// Core is one simulated CPU. It is driven by Tick once per cycle.
type Core struct {
	ID  int
	cfg Config

	gen  workload.Generator
	port MemPort

	obsIssue    workload.IssueObserver
	obsComplete workload.CompletionObserver

	slots []slot // ring, indexed seq % WindowOps
	head  uint64 // oldest unretired seq
	tail  uint64 // next seq to fill

	fetchClock uint64 // program-order fetch front, advanced by gaps

	gapQ   sim.DelayQueue[uint64] // seqs waiting out their compute gap
	readyQ sim.Ring[uint64]       // seqs ready to issue, FIFO

	outstanding int // issued, not yet done

	// mshrBlocked records that the last issue attempt saw the head-of-line
	// op refused with AccessBlocked. While it holds, the core's refills and
	// gap expiries are bookkeeping FastForward replays, not events: the
	// refused retry is a pure probe, and only the port's freeing response
	// (or the head op's retirement) can change what a Tick does. Re-derived
	// on every issue(), so it is never stale across ticks; losing it
	// (checkpoint restore) merely costs one conservative poll.
	mshrBlocked bool

	// Cumulative counters.
	instsRetired uint64
	opsRetired   uint64
	cycles       uint64

	// Reset baselines for measurement windows.
	baseInsts  uint64
	baseCycles uint64
}

// New builds a core running gen against port.
func New(id int, cfg Config, gen workload.Generator, port MemPort) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || port == nil {
		return nil, fmt.Errorf("cpu: nil generator or port")
	}
	c := &Core{
		ID:    id,
		cfg:   cfg,
		gen:   gen,
		port:  port,
		slots: make([]slot, cfg.WindowOps),
	}
	c.obsIssue, _ = gen.(workload.IssueObserver)
	c.obsComplete, _ = gen.(workload.CompletionObserver)
	return c, nil
}

// Generator returns the workload driving this core.
func (c *Core) Generator() workload.Generator { return c.gen }

func (c *Core) slotAt(seq uint64) *slot {
	return &c.slots[seq%uint64(len(c.slots))]
}

// Tick advances the core one cycle: fill, wake, issue, retire.
func (c *Core) Tick(now uint64) {
	c.cycles++
	c.fill(now)
	c.wake(now)
	c.issue(now)
	c.retire(now)
}

func (c *Core) fill(now uint64) {
	for c.tail-c.head < uint64(len(c.slots)) {
		s := c.slotAt(c.tail)
		c.gen.Next(&s.op)
		s.seq = c.tail
		s.waiter = 0
		s.hasWait = false
		c.tail++

		// Program-order fetch: the front end supplies one memory op per
		// Gap compute cycles.
		if c.fetchClock < now {
			c.fetchClock = now
		}
		c.fetchClock += uint64(s.op.Gap)
		s.fetchAt = c.fetchClock

		if s.op.DependsOn > 0 && s.op.DependsOn <= int(s.seq) {
			depSeq := s.seq - uint64(s.op.DependsOn)
			if depSeq < c.head {
				// Dependency already retired; only the fetch constraint
				// remains.
				c.armGap(s, s.fetchAt)
				continue
			}
			dep := c.slotAt(depSeq)
			if dep.state == slotDone {
				c.armGap(s, depReadyAt(s, dep.doneAt))
				continue
			}
			if dep.hasWait {
				panic("cpu: dependency already has a waiter; generators must keep dependence distances unique within the window")
			}
			dep.hasWait = true
			dep.waiter = s.seq
			s.state = slotWaitDep
			continue
		}
		c.armGap(s, s.fetchAt)
	}
}

func (c *Core) armGap(s *slot, readyAt uint64) {
	s.state = slotWaitGap
	c.gapQ.Push(s.seq, readyAt)
}

func (c *Core) wake(now uint64) {
	for {
		seq, ok := c.gapQ.Pop(now)
		if !ok {
			return
		}
		s := c.slotAt(seq)
		if s.seq != seq || s.state != slotWaitGap {
			continue // stale entry from a recycled slot
		}
		s.state = slotReady
		c.readyQ.PushBack(seq)
	}
}

func (c *Core) issue(now uint64) {
	c.mshrBlocked = false
	issued := 0
	for issued < c.cfg.IssueWidth && c.readyQ.Len() > 0 {
		seq, _ := c.readyQ.Front()
		s := c.slotAt(seq)
		if s.seq != seq || s.state != slotReady {
			c.readyQ.PopFront()
			continue
		}
		status, doneAt := c.port.Access(s.op.Addr, s.op.Write, now, seq)
		if status == AccessBlocked {
			c.mshrBlocked = true
			return // head-of-line retry next cycle
		}
		c.readyQ.PopFront()
		s.state = slotIssued
		c.outstanding++
		if c.obsIssue != nil && s.op.Tag != 0 {
			c.obsIssue.OnIssue(now, s.op.Tag)
		}
		if status == AccessDone {
			c.complete(s, doneAt)
		}
		issued++
	}
}

func (c *Core) complete(s *slot, doneAt uint64) {
	s.state = slotDone
	s.doneAt = doneAt
	c.outstanding--
	if c.obsComplete != nil && s.op.Tag != 0 {
		c.obsComplete.OnComplete(doneAt, s.op.Tag)
	}
	if s.hasWait {
		w := c.slotAt(s.waiter)
		if w.seq == s.waiter && w.state == slotWaitDep {
			c.armGap(w, depReadyAt(w, s.doneAt))
		}
		s.hasWait = false
	}
}

// depReadyAt combines a dependent op's two constraints: the front end
// must have fetched it, and the dependent compute (its Gap) must run
// after the producer's value arrives.
func depReadyAt(w *slot, depDoneAt uint64) uint64 {
	at := depDoneAt + uint64(w.op.Gap)
	if w.fetchAt > at {
		at = w.fetchAt
	}
	return at
}

// CompleteMiss finishes a pending miss identified by the sequence token
// the port captured at Access time: the core passes the op's sequence
// number as Access's token, and the port hands it back here when the
// miss returns.
func (c *Core) CompleteMiss(token uint64, now uint64) {
	s := c.slotAt(token)
	if !c.AwaitsMiss(token) {
		panic(fmt.Sprintf("cpu: CompleteMiss for seq %d in state %d", token, s.state))
	}
	c.complete(s, now)
}

// AwaitsMiss reports whether token names an op issued to the port and
// not yet complete: the only op CompleteMiss accepts.
func (c *Core) AwaitsMiss(token uint64) bool {
	s := c.slotAt(token)
	return s.seq == token && s.state == slotIssued
}

func (c *Core) retire(now uint64) {
	for c.head < c.tail {
		s := c.slotAt(c.head)
		if s.state != slotDone || s.doneAt > now {
			return
		}
		c.instsRetired += s.op.Insts
		c.opsRetired++
		c.head++
	}
}

// NextEventAt reports the earliest cycle >= from at which Tick would do
// work FastForward cannot replay, so the event kernel can skip the core
// until then. Ops waiting on in-flight misses wake through CompleteMiss,
// which the tile's inbox accounts for.
//
// An unblocked core is busy right away if it can issue (ready ops) or
// fetch (window space for the generator); otherwise its next event is
// the earliest gap expiry or the head op's retirement.
//
// A core whose head-of-line op was refused (mshrBlocked) has one event
// of its own, the head op's retirement. Its refused retry is a pure
// probe that keeps failing until a response frees an MSHR, and the
// response wakes the tile through its inbox. Window space and gap
// expiries are no events: the refill happens at the first skipped cycle
// and expiring ops only queue behind the refused head, both of which
// FastForward replays.
func (c *Core) NextEventAt(from uint64) uint64 {
	next := sim.NoEvent
	if !c.mshrBlocked {
		if c.tail-c.head < uint64(len(c.slots)) || c.readyQ.Len() > 0 {
			return from
		}
		if _, at, ok := c.gapQ.Peek(); ok {
			next = at
		}
	}
	if c.head < c.tail {
		if s := c.slotAt(c.head); s.state == slotDone && s.doneAt < next {
			next = s.doneAt
		}
	}
	if next < from {
		return from
	}
	return next
}

// FastForward replays the cycles [from, to) the core slept through, in
// which nothing could issue or retire. It is exactly what Tick does over
// such a span: an unblocked core has a full window and no gap expiry
// due, so only the cycle counter moves; a blocked core refills its
// window at the first skipped cycle and queues every gap expiry behind
// its refused head, in the order per-cycle pops would have produced.
func (c *Core) FastForward(from, to uint64) {
	c.cycles += to - from
	if c.mshrBlocked && from < to {
		c.replayBlocked(from, to)
	}
}

// replayBlocked is FastForward's blocked half, out of line so the
// unblocked half inlines into the event kernel's tile adapter.
func (c *Core) replayBlocked(from, to uint64) {
	c.fill(from)
	c.wake(to - 1)
}

// Outstanding returns issued-but-incomplete ops (observed MLP).
func (c *Core) Outstanding() int { return c.outstanding }

// InstsRetired returns instructions retired since the last ResetStats.
func (c *Core) InstsRetired() uint64 { return c.instsRetired - c.baseInsts }

// OpsRetired returns memory ops retired in total.
func (c *Core) OpsRetired() uint64 { return c.opsRetired }

// Cycles returns cycles ticked since the last ResetStats.
func (c *Core) Cycles() uint64 { return c.cycles - c.baseCycles }

// IPC returns instructions per cycle since the last ResetStats.
func (c *Core) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.InstsRetired()) / float64(cy)
}

// ResetStats starts a new measurement window (end of warmup).
func (c *Core) ResetStats() {
	c.baseInsts = c.instsRetired
	c.baseCycles = c.cycles
}
