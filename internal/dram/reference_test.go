package dram

import "pabst/internal/mem"

// RefController is the pre-index controller: flat arrival-order queues
// scanned in full every cycle, with an O(n) memmove dequeue. The
// scheduling code below is the old implementation frozen verbatim, not
// re-derived. It is a test-only oracle: the differential test pins the
// indexed scheduler's every service decision against it, and
// BenchmarkScanReferenceDepth128 times it as the actual historical
// datapath the index replaced, not a strawman.
type RefController struct {
	cfg Config

	readQ  []*mem.Packet
	writeQ []*mem.Packet

	banks []refBank

	bankShift uint
	rowShift  uint

	busFreeAt uint64
	lastWrite bool
	writeMode bool

	sched   ReadSched
	arbiter Arbiter
	respond Responder
	onWrite func(pkt *mem.Packet)

	frozenUntil uint64

	Stats Stats
}

type refBank struct {
	readyAt uint64
	openRow int64
}

// NewRefController builds the reference controller.
func NewRefController(cfg Config, respond Responder) *RefController {
	c := &RefController{cfg: cfg, banks: make([]refBank, cfg.Banks), respond: respond}
	// Mirror the shift math via a throwaway real controller.
	rc, err := NewController(0, cfg, respond)
	if err != nil {
		panic(err)
	}
	c.bankShift = rc.bankShift
	c.rowShift = rc.rowShift
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

// SetScheduler selects the read scheduling policy.
func (c *RefController) SetScheduler(sched ReadSched, arb Arbiter) {
	c.sched = sched
	c.arbiter = arb
}

// SetOnWrite installs a hook observing each served write.
func (c *RefController) SetOnWrite(fn func(pkt *mem.Packet)) { c.onWrite = fn }

// QueuedReads returns the front-end read queue population.
func (c *RefController) QueuedReads() int { return len(c.readQ) }

// QueuedWrites returns the front-end write queue population.
func (c *RefController) QueuedWrites() int { return len(c.writeQ) }

func (c *RefController) bankOf(addr mem.Addr) int {
	rc := Controller{cfg: c.cfg, bankShift: c.bankShift}
	return rc.bankOf(addr)
}

func (c *RefController) rowOf(addr mem.Addr) int64 {
	return int64(addr.LineID() >> c.rowShift)
}

// ArriveRead accepts a read; the caller is responsible for respecting
// FrontReadQ (the real controller's TryReserveRead admission).
func (c *RefController) ArriveRead(pkt *mem.Packet, now uint64) {
	pkt.Enq = now
	if c.arbiter != nil {
		c.arbiter.OnAccept(pkt, now)
	}
	c.readQ = append(c.readQ, pkt)
}

// ArriveWrite accepts a writeback.
func (c *RefController) ArriveWrite(pkt *mem.Packet, now uint64) {
	pkt.Enq = now
	c.writeQ = append(c.writeQ, pkt)
}

// Tick advances the controller one cycle.
func (c *RefController) Tick(now uint64) {
	if now < c.frozenUntil {
		return
	}
	if c.writeMode {
		if len(c.writeQ) == 0 || (len(c.writeQ) <= c.cfg.writeLowWater() && len(c.readQ) > 0) {
			c.writeMode = false
		}
	} else {
		if len(c.writeQ) >= c.cfg.writeHighWater() || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
			c.writeMode = true
		}
	}
	t := &c.cfg.Timing
	window := uint64(t.TRCD + t.TCL + pipelineDepth*t.TBurst)
	if c.busFreeAt > now+window {
		return
	}
	if c.writeMode {
		c.issueWrite(now)
	} else {
		c.issueRead(now)
	}
}

func (c *RefController) better(a, b *mem.Packet) bool {
	if c.sched == SchedEDF {
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
	}
	return a.Enq < b.Enq
}

func (c *RefController) pickRead(now uint64) int {
	best := -1
	bestHit := false
	minDL := ^uint64(0)
	for i, pkt := range c.readQ {
		b := &c.banks[c.bankOf(pkt.Addr)]
		if b.readyAt > now {
			continue
		}
		if pkt.Deadline < minDL {
			minDL = pkt.Deadline
		}
		hit := c.cfg.Policy == OpenPage && b.openRow == c.rowOf(pkt.Addr)
		if best == -1 {
			best, bestHit = i, hit
			continue
		}
		if hit != bestHit {
			if hit {
				best, bestHit = i, hit
			}
			continue
		}
		if c.better(pkt, c.readQ[best]) {
			best = i
		}
	}
	if c.sched == SchedEDF && best >= 0 && c.readQ[best].Deadline > minDL {
		c.Stats.PriorityInversions++
	}
	return best
}

func (c *RefController) issueRead(now uint64) {
	i := c.pickRead(now)
	if i < 0 {
		return
	}
	pkt := c.readQ[i]
	c.readQ = append(c.readQ[:i], c.readQ[i+1:]...)
	if c.arbiter != nil {
		c.arbiter.OnPick(pkt, now)
	}
	dataStart := c.access(now, pkt.Addr, false)
	doneAt := dataStart + uint64(c.cfg.Timing.TBurst)
	c.Stats.ReadsServed++
	c.respond(pkt, doneAt)
}

func (c *RefController) issueWrite(now uint64) {
	best := -1
	for i, pkt := range c.writeQ {
		if c.banks[c.bankOf(pkt.Addr)].readyAt > now {
			continue
		}
		if best == -1 || pkt.Enq < c.writeQ[best].Enq {
			best = i
		}
	}
	if best < 0 {
		return
	}
	pkt := c.writeQ[best]
	c.writeQ = append(c.writeQ[:best], c.writeQ[best+1:]...)
	c.access(now, pkt.Addr, true)
	c.Stats.WritesServed++
	if c.onWrite != nil {
		c.onWrite(pkt)
	}
}

func (c *RefController) access(now uint64, addr mem.Addr, write bool) uint64 {
	t := &c.cfg.Timing
	bk := &c.banks[c.bankOf(addr)]
	row := c.rowOf(addr)
	casDelay := t.TCL
	if write {
		casDelay = t.TCWL
	}
	var cmdDone uint64
	rowHit := false
	switch c.cfg.Policy {
	case ClosedPage:
		cmdDone = now + uint64(t.TRCD+casDelay)
	case OpenPage:
		switch {
		case bk.openRow == row:
			rowHit = true
			cmdDone = now + uint64(casDelay)
		case bk.openRow >= 0:
			cmdDone = now + uint64(t.TRP+t.TRCD+casDelay)
		default:
			cmdDone = now + uint64(t.TRCD+casDelay)
		}
		bk.openRow = row
	}
	if rowHit {
		c.Stats.RowHits++
	}
	dataStart := c.busFreeAt
	if cmdDone > dataStart {
		dataStart = cmdDone
	}
	if write != c.lastWrite {
		pen := t.TRTW
		if c.lastWrite {
			pen = t.TWTR
		}
		if min := c.busFreeAt + uint64(pen); dataStart < min {
			dataStart = min
		}
	}
	c.lastWrite = write
	dataDone := dataStart + uint64(t.TBurst)
	c.busFreeAt = dataDone
	switch c.cfg.Policy {
	case ClosedPage:
		busy := now + uint64(t.TRAS+t.TRP)
		if dataDone > busy {
			busy = dataDone
		}
		bk.readyAt = busy
	case OpenPage:
		bk.readyAt = dataDone
	}
	return dataStart
}
