package dram

import (
	"fmt"
	"math/bits"

	"pabst/internal/mem"
	"pabst/internal/sim"
)

// Config sizes one memory controller (one channel).
type Config struct {
	Timing Timing
	Policy PagePolicy

	Banks    int // banks per channel (power of two)
	RowLines int // lines per row buffer (power of two)

	// AddrShift drops this many low line-number bits before bank/row
	// decoding (the bits consumed by channel interleaving).
	AddrShift uint

	FrontReadQ  int // front-end read queue capacity
	FrontWriteQ int // front-end write queue capacity
}

// pipelineDepth bounds how far ahead of the data bus the scheduler may
// run, in bursts. It keeps modeled latencies honest by refusing to
// issue commands whose data slot is far in the future.
const pipelineDepth = 2

// writeHighWater and writeLowWater are the write drain watermarks: the
// controller switches to writes when the write queue reaches ¾ of its
// capacity (or reads are idle) and back to reads at ¼. Pointer
// receivers: nextWriteMode runs every busy cycle and must not copy the
// whole Config to read one field.
func (c *Config) writeHighWater() int { return c.FrontWriteQ * 3 / 4 }
func (c *Config) writeLowWater() int  { return c.FrontWriteQ / 4 }

// maxQueueDepth bounds every queue capacity. The queues are allocated
// up front, so the bound is what keeps a configuration from a JSON file
// or a REST body from sizing them past memory; hardware queues are tens
// of entries deep.
const maxQueueDepth = 1 << 12

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks must be a positive power of two, got %d", c.Banks)
	}
	if c.RowLines <= 0 || c.RowLines&(c.RowLines-1) != 0 {
		return fmt.Errorf("dram: row lines must be a positive power of two, got %d", c.RowLines)
	}
	if c.FrontReadQ <= 0 || c.FrontWriteQ <= 0 || c.FrontReadQ > maxQueueDepth || c.FrontWriteQ > maxQueueDepth {
		return fmt.Errorf("dram: queue capacities %d/%d outside [1, %d]", c.FrontReadQ, c.FrontWriteQ, maxQueueDepth)
	}
	if c.FrontWriteQ < 2 {
		return fmt.Errorf("dram: write queue capacity %d leaves no room between the drain watermarks", c.FrontWriteQ)
	}
	return nil
}

// ReadSched selects how the front-end read pick is ordered.
type ReadSched uint8

const (
	// SchedFCFS serves reads in arrival order among ready banks
	// (FR-FCFS with the baseline page policy).
	SchedFCFS ReadSched = iota
	// SchedEDF serves the ready read with the earliest virtual deadline
	// (the PABST priority arbiter's order). Requires an Arbiter.
	SchedEDF
)

// Arbiter is implemented by the PABST priority arbiter. OnAccept runs when
// a read enters the front end (assigning pkt.Deadline); OnPick runs when
// the scheduler selects a read for service. Implementations may read the
// packet's fields during the call but must not retain the pointer: once
// the transaction completes the packet is recycled and rewritten (see the
// ownership contract on mem.Pool).
type Arbiter interface {
	OnAccept(pkt *mem.Packet, now uint64)
	OnPick(pkt *mem.Packet, now uint64)
}

// Responder receives completed reads. doneAt is the cycle the last data
// beat leaves the channel; the SoC layer adds NoC latency on top.
// Ownership of the packet transfers to the responder.
type Responder func(pkt *mem.Packet, doneAt uint64)

// Releaser receives served writeback packets so their owner can recycle
// them. A nil releaser simply drops served writes.
type Releaser func(pkt *mem.Packet)

// wentry is one queued writeback. seq is the write arrival sequence
// number: Enq stamps are non-decreasing in arrival order, so min-seq
// among ready bank heads is exactly the old oldest-Enq (ties by queue
// position) scan order.
type wentry struct {
	pkt *mem.Packet
	seq uint64
}

// bank is one bank's row state and write bucket. Its timing lives in
// Controller.readyAt, a dense array, because the per-cycle pick and
// NextEventAt scan it across all banks.
type bank struct {
	openRow int64            // -1 when closed
	writes  sim.Ring[wentry] // per-bank write bucket (FIFO by seq)
}

// Stats aggregates per-controller counters. Byte counters are cumulative;
// callers sample and diff them for time series.
type Stats struct {
	ReadsServed  uint64
	WritesServed uint64

	BytesByClass   [mem.MaxClasses]uint64 // read + writeback data moved per class
	ReadLatencySum uint64                 // enqueue -> last data beat, reads only

	// Per-class read service counts and front-end latency sums.
	ReadsByClass       [mem.MaxClasses]uint64
	ReadLatencyByClass [mem.MaxClasses]uint64

	BusBusyCycles uint64 // data bus occupied
	PendingCycles uint64 // cycles with any queued work
	RowHits       uint64 // open-page row buffer hits

	// PriorityInversions counts EDF-mode picks where the served read's
	// virtual deadline was later than the earliest deadline among ready
	// candidates — i.e. the row-hit-first back end jumped the EDF order
	// (the Section III-C2 trade of priority for bus efficiency).
	PriorityInversions uint64
}

// Controller models one memory channel. The front-end read queue lives
// in an incrementally-maintained per-bank index (see sched.go) so the
// per-cycle pick is O(banks) instead of O(queue depth); writes sit in
// per-bank FIFO rings picked by arrival sequence.
type Controller struct {
	ID  int
	cfg Config

	fe *frontSched // front-end read index

	nWrites int    // writes queued across all bank buckets
	wseq    uint64 // next write arrival sequence number

	reservedReads  int
	reservedWrites int

	banks     []bank
	readyAt   []uint64 // per bank: first cycle it accepts a command
	bankShift uint
	rowShift  uint

	// window bounds how far ahead of the bus the scheduler runs: command
	// latency (ACT+CAS) overlaps the data bus, so an access may issue
	// while busFreeAt <= now+window.
	window uint64

	busFreeAt uint64
	lastWrite bool // direction of last bus use, for turnaround

	writeMode bool

	sched   ReadSched
	arbiter Arbiter
	respond Responder
	release Releaser

	// Saturation monitor state: integral of read queue occupancy since
	// the last epoch boundary (Section III-C1).
	occIntegral uint64
	occCycles   uint64

	// frozenUntil gates the issue path during an injected front-end
	// freeze fault: queues keep filling and the saturation monitor keeps
	// integrating, but nothing is scheduled until the cycle passes.
	frozenUntil uint64

	Stats Stats
}

// NewController builds a controller. respond must not be nil.
func NewController(id int, cfg Config, respond Responder) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if respond == nil {
		return nil, fmt.Errorf("dram: nil responder")
	}
	c := &Controller{
		ID:        id,
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks),
		readyAt:   make([]uint64, cfg.Banks),
		bankShift: cfg.AddrShift,
		rowShift:  cfg.AddrShift + uint(bits.TrailingZeros(uint(cfg.Banks))) + uint(bits.TrailingZeros(uint(cfg.RowLines))),
		window:    uint64(cfg.Timing.TRCD + cfg.Timing.TCL + pipelineDepth*cfg.Timing.TBurst),
		respond:   respond,
	}
	c.fe = newFrontSched(cfg.Banks, cfg.FrontReadQ)
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].writes.Grow(cfg.FrontWriteQ)
	}
	return c, nil
}

// SetScheduler selects the read pick order and, for EDF, the arbiter that
// assigns and consumes virtual deadlines. It is part of construction: a
// front end that holds reads keeps the order they were indexed in, so
// calling it then panics.
func (c *Controller) SetScheduler(s ReadSched, a Arbiter) {
	if s == SchedEDF && a == nil {
		panic("dram: EDF scheduling requires an arbiter")
	}
	if c.fe.count > 0 {
		panic("dram: SetScheduler on a front end holding reads")
	}
	c.sched = s
	c.arbiter = a
	c.fe.edf = s == SchedEDF
}

// SetReleaser installs the hook that receives served writeback packets.
func (c *Controller) SetReleaser(r Releaser) { c.release = r }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// bankOf XOR-folds higher address bits into the bank index so strided
// streams spread across all banks (standard controller bank hashing).
func (c *Controller) bankOf(addr mem.Addr) int {
	x := addr.LineID() >> c.bankShift
	b := uint(bits.TrailingZeros(uint(c.cfg.Banks)))
	return int((x ^ x>>b ^ x>>(2*b) ^ x>>(3*b)) & uint64(c.cfg.Banks-1))
}

func (c *Controller) rowOf(addr mem.Addr) int64 {
	return int64(addr.LineID() >> c.rowShift)
}

// TryReserveRead grants a front-end read slot if one is free. The caller
// must follow up with ArriveRead for every successful reservation; the
// slot is held until then so that in-flight NoC traffic can never
// overflow the queue.
func (c *Controller) TryReserveRead() bool {
	if !c.ReadSlotFree() {
		return false
	}
	c.reservedReads++
	return true
}

// TryReserveWrite grants a front-end write slot if one is free.
func (c *Controller) TryReserveWrite() bool {
	if !c.WriteSlotFree() {
		return false
	}
	c.reservedWrites++
	return true
}

// ReadSlotFree reports whether TryReserveRead would grant a slot.
func (c *Controller) ReadSlotFree() bool { return c.fe.count+c.reservedReads < c.cfg.FrontReadQ }

// WriteSlotFree reports whether TryReserveWrite would grant a slot.
func (c *Controller) WriteSlotFree() bool { return c.nWrites+c.reservedWrites < c.cfg.FrontWriteQ }

// ArriveRead places a previously reserved read into the front-end read
// queue and lets the arbiter stamp its virtual deadline.
func (c *Controller) ArriveRead(pkt *mem.Packet, now uint64) {
	if c.reservedReads <= 0 {
		panic("dram: ArriveRead without reservation")
	}
	c.reservedReads--
	pkt.Enq = now
	if c.arbiter != nil {
		c.arbiter.OnAccept(pkt, now)
	}
	c.insertRead(pkt)
}

// insertRead indexes a read whose Deadline/Enq stamps are already set.
func (c *Controller) insertRead(pkt *mem.Packet) {
	b := c.bankOf(pkt.Addr)
	c.fe.insert(pkt, int32(b), c.rowOf(pkt.Addr))
}

// ArriveWrite places a previously reserved writeback into the write queue.
func (c *Controller) ArriveWrite(pkt *mem.Packet, now uint64) {
	if c.reservedWrites <= 0 {
		panic("dram: ArriveWrite without reservation")
	}
	c.reservedWrites--
	pkt.Enq = now
	c.insertWrite(pkt)
}

// insertWrite buckets a stamped write by bank, tagging it with the next
// arrival sequence number.
func (c *Controller) insertWrite(pkt *mem.Packet) {
	c.banks[c.bankOf(pkt.Addr)].writes.PushBack(wentry{pkt: pkt, seq: c.wseq})
	c.wseq++
	c.nWrites++
}

// QueuedReads returns the current front-end read queue depth (the
// saturation monitor's subject).
func (c *Controller) QueuedReads() int { return c.fe.count }

// QueuedWrites returns the current write queue depth.
func (c *Controller) QueuedWrites() int { return c.nWrites }

// EpochSaturated implements the paper's saturation monitor: it reports
// whether the average read-queue occupancy since the previous call
// exceeded half the queue capacity, then resets the measurement window.
func (c *Controller) EpochSaturated() bool {
	if c.occCycles == 0 {
		return false
	}
	sat := 2*c.occIntegral > uint64(c.cfg.FrontReadQ)*c.occCycles
	c.occIntegral = 0
	c.occCycles = 0
	return sat
}

// Freeze stops the controller front end from issuing anything until the
// given cycle (fault injection: a transient controller hang). Arrivals
// and occupancy accounting continue — the queues visibly back up, which
// is exactly the condition the saturation monitor must report.
func (c *Controller) Freeze(until uint64) {
	if until > c.frozenUntil {
		c.frozenUntil = until
	}
}

// StallBank makes one bank unavailable until the given cycle (fault
// injection: an ECC scrub or on-die retry burst pinning the bank).
func (c *Controller) StallBank(b int, until uint64) {
	r := &c.readyAt[b%len(c.readyAt)]
	if until > *r {
		*r = until
	}
}

// NextEventAt reports the earliest cycle >= from at which Tick could
// issue an access, so the event kernel can skip the controller until
// then: ticking it on any earlier cycle is exactly FastForward over that
// cycle. Queued work issues at the latest of the first unfrozen cycle,
// the first cycle the pipeline window admits (busFreeAt − window), and
// the earliest readyAt among the banks holding work in the current
// read/write mode. A pending read/write mode flip changes which banks
// count, so it makes the first unfrozen cycle the event, and an
// outstanding reservation makes the controller due at once.
// A drained controller reports no event: FastForward replays the mode
// register, and in-flight bursts were handed to the responder when they
// issued.
func (c *Controller) NextEventAt(from uint64) uint64 {
	if c.reservedReads > 0 || c.reservedWrites > 0 {
		return from
	}
	if c.fe.count == 0 && c.nWrites == 0 {
		return sim.NoEvent
	}
	at := max(from, c.frozenUntil)
	if c.nextWriteMode() != c.writeMode {
		return at
	}
	if c.busFreeAt > c.window {
		at = max(at, c.busFreeAt-c.window)
	}
	ready := sim.NoEvent
	if c.writeMode {
		for b := range c.banks {
			if c.banks[b].writes.Len() > 0 {
				ready = min(ready, c.readyAt[b])
			}
		}
	} else {
		for wi, word := range c.fe.occupied {
			for ; word != 0; word &= word - 1 {
				ready = min(ready, c.readyAt[wi<<6|bits.TrailingZeros64(word)])
			}
		}
	}
	return max(at, ready)
}

// FastForward accounts for the cycles [from, to) as Tick would have on
// a controller that issues nothing during them (NextEventAt(from) >= to,
// so nothing arrives or leaves either): the saturation monitor
// integrates the constant read-queue occupancy over the span, pending
// cycles count it if anything is queued, and if the span reaches an
// unfrozen cycle the read/write mode register takes the value Tick's
// hysteresis step gives it (with constant queues one step is a
// fixpoint).
func (c *Controller) FastForward(from, to uint64) {
	span := to - from
	c.occIntegral += uint64(c.fe.count) * span
	c.occCycles += span
	if c.fe.count > 0 || c.nWrites > 0 {
		c.Stats.PendingCycles += span
	}
	// An injected front-end freeze blocks mode changes and scheduling;
	// the accounting above still advances.
	if to > max(from, c.frozenUntil) {
		c.writeMode = c.nextWriteMode()
	}
}

// nextWriteMode is the read/write mode hysteresis: drain writes once
// the write queue reaches the high watermark (or reads are idle), return
// to reads once it falls to the low watermark with reads waiting.
func (c *Controller) nextWriteMode() bool {
	if c.writeMode {
		return c.nWrites > 0 && (c.nWrites > c.cfg.writeLowWater() || c.fe.count == 0)
	}
	return c.nWrites >= c.cfg.writeHighWater() || (c.fe.count == 0 && c.nWrites > 0)
}

// Tick advances the controller by one cycle: FastForward's accounting
// for the cycle (monitor state, read/write mode), then at most one
// access.
func (c *Controller) Tick(now uint64) {
	c.FastForward(now, now+1)
	if now < c.frozenUntil || c.busFreeAt > now+c.window {
		return
	}
	if c.writeMode {
		c.issueWrite(now)
	} else {
		c.issueRead(now)
	}
}

// issueRead is the read pick: at most one candidate per ready
// bank holding a read (on an open-page bank its first read on the open
// row if it holds one, else its heap top), row hits first, then the
// scheduling order. This is
// bit-identical to the old whole-queue scan — see the equivalence note
// in sched.go.
func (c *Controller) issueRead(now uint64) {
	f := c.fe
	open := c.cfg.Policy == OpenPage
	best := int32(-1)
	bestHit := false
	minDL := ^uint64(0) // earliest deadline among ready candidates
	for wi, word := range f.occupied {
		for ; word != 0; word &= word - 1 {
			b := wi<<6 | bits.TrailingZeros64(word)
			if c.readyAt[b] > now {
				continue
			}
			top := f.banks[b].items[0]
			// Under EDF the heap top carries the bank's earliest
			// deadline (the heap order is deadline-major).
			if f.edf {
				if dl := f.nodes[top].dl; dl < minDL {
					minDL = dl
				}
			}
			cand, hit := top, false
			if open {
				if h := f.openRowMin(b, c.banks[b].openRow); h >= 0 {
					cand, hit = h, true
				}
			}
			switch {
			case best < 0:
				best, bestHit = cand, hit
			case hit != bestHit:
				if hit {
					best, bestHit = cand, hit
				}
			default:
				if f.less(cand, best) {
					best = cand
				}
			}
		}
	}
	if best < 0 {
		return
	}
	if c.sched == SchedEDF && f.nodes[best].dl > minDL {
		c.Stats.PriorityInversions++
	}
	pkt := f.remove(best)
	c.serveRead(pkt, now)
}

// serveRead performs the bank access, stats, and response for the
// picked read. Ownership of the packet passes to the responder.
func (c *Controller) serveRead(pkt *mem.Packet, now uint64) {
	if c.arbiter != nil {
		c.arbiter.OnPick(pkt, now)
	}
	dataStart := c.access(now, pkt.Addr, false)
	doneAt := dataStart + uint64(c.cfg.Timing.TBurst)
	c.Stats.ReadsServed++
	c.Stats.BytesByClass[pkt.Class] += mem.LineSize
	c.Stats.ReadLatencySum += doneAt - pkt.Enq
	c.Stats.ReadsByClass[pkt.Class]++
	c.Stats.ReadLatencyByClass[pkt.Class] += doneAt - pkt.Enq
	c.respond(pkt, doneAt)
}

func (c *Controller) issueWrite(now uint64) {
	// Writes are served oldest-first among ready banks (the paper leaves
	// write selection unmodified). Each bank bucket is FIFO, so its head
	// carries the bank's lowest sequence number and the scan is O(banks).
	bestBank := -1
	var bestSeq uint64
	for b := range c.banks {
		if c.readyAt[b] > now {
			continue
		}
		e, ok := c.banks[b].writes.Front()
		if !ok {
			continue
		}
		if bestBank == -1 || e.seq < bestSeq {
			bestBank, bestSeq = b, e.seq
		}
	}
	if bestBank < 0 {
		return
	}
	e, _ := c.banks[bestBank].writes.PopFront()
	c.nWrites--
	pkt := e.pkt
	c.access(now, pkt.Addr, true)
	c.Stats.WritesServed++
	c.Stats.BytesByClass[pkt.Class] += mem.LineSize
	if c.release != nil {
		c.release(pkt)
	}
}

// access performs the bank/bus timing for one line transfer and returns
// the cycle its data burst starts.
func (c *Controller) access(now uint64, addr mem.Addr, write bool) uint64 {
	t := &c.cfg.Timing
	b := c.bankOf(addr)
	bk := &c.banks[b]
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
	// Bus turnaround penalty on direction change.
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
	c.Stats.BusBusyCycles += uint64(t.TBurst)

	// Bank occupancy. With closed-page auto-precharge the bank is busy
	// for tRC = tRAS + tRP from the ACT (issued now); it also cannot
	// accept a new ACT before its data burst has drained. Bus queueing
	// delay beyond that does not extend bank occupancy — banks pipeline
	// behind the shared bus.
	switch c.cfg.Policy {
	case ClosedPage:
		busy := now + uint64(t.TRAS+t.TRP)
		if dataDone > busy {
			busy = dataDone
		}
		c.readyAt[b] = busy
	case OpenPage:
		c.readyAt[b] = dataDone
	}
	return dataStart
}

// PeakBytesPerCycle returns the channel's data-bus limit.
func (c *Controller) PeakBytesPerCycle() float64 {
	return float64(mem.LineSize) / float64(c.cfg.Timing.TBurst)
}
