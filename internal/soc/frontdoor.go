package soc

import (
	"math/bits"

	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/sim"
)

// frontDoor is the admission stage in front of one memory controller's
// bounded front-end queues. Requests that cannot yet get a front-end slot
// wait here, in per-class FIFOs — this is where traffic "queues at the
// last-level cache" when the target is oversubscribed, outside the reach
// of the priority arbiter.
//
// Admission into freed slots is round-robin across classes with waiting
// requests, modeling the per-flow fairness of mesh router arbitration:
// a class that floods the system cannot deny another class's requests a
// path into the controller, but it can and does dilute them — which is
// exactly why target-only regulation degrades under floods (Figure 1b)
// while still helping low-MLP latency-sensitive classes whose requests
// never backlog (Figure 1d).
//
// The round-robin pointer moves only when a read is admitted, so a
// waiting class reaches the controller within one admission per waiting
// class however the controller's slots free. Every change to door state
// happens inside tick — arrivals, from the latency-only mesh and the
// modeled network alike, enter through the inbox — so a tick that admits
// nothing leaves the door unchanged, and a sleeping door has nothing to
// replay.
type frontDoor struct {
	mc *dram.Controller

	inbox sim.DelayQueue[*mem.Packet]

	reads     [mem.MaxClasses]sim.Ring[*mem.Packet]
	waiting   uint16 // bit c: reads[c] is non-empty
	readCount int
	rrNext    int

	writes sim.Ring[*mem.Packet]
}

// waiting has one bit per class and rotates modulo the class count.
var _ [0]struct{} = [mem.MaxClasses - 16]struct{}{}

// park accepts an arrived packet into the appropriate waiting room.
func (d *frontDoor) park(pkt *mem.Packet) {
	if pkt.Kind == mem.Writeback {
		d.writes.PushBack(pkt)
		return
	}
	d.reads[pkt.Class].PushBack(pkt)
	d.waiting |= 1 << pkt.Class
	d.readCount++
}

// Parked returns the number of reads waiting for admission.
func (d *frontDoor) Parked() int { return d.readCount }

// advance returns the next class with waiting reads at or after the
// round-robin pointer and moves the pointer past it.
func (d *frontDoor) advance() int {
	ahead := bits.TrailingZeros16(bits.RotateLeft16(d.waiting, -d.rrNext))
	cls := (d.rrNext + ahead) % mem.MaxClasses
	d.rrNext = (cls + 1) % mem.MaxClasses
	return cls
}

// tick drains arrivals and admits requests into freed front-end slots.
func (d *frontDoor) tick(now uint64) {
	for {
		pkt, ok := d.inbox.Pop(now)
		if !ok {
			break
		}
		d.park(pkt)
	}
	// Reads: round-robin across classes with waiting requests; the pointer
	// moves only past a class it admits.
	for d.waiting != 0 && d.mc.TryReserveRead() {
		cls := d.advance()
		q := &d.reads[cls]
		pkt, _ := q.PopFront()
		d.mc.ArriveRead(pkt, now)
		d.readCount--
		if q.Len() == 0 {
			d.waiting &^= 1 << cls
		}
	}
	// Writes: FIFO (never prioritized, per the paper).
	for d.writes.Len() > 0 && d.mc.TryReserveWrite() {
		pkt, _ := d.writes.PopFront()
		d.mc.ArriveWrite(pkt, now)
	}
}

// nextEventAt reports the earliest cycle >= from at which tick would
// admit something: an inbox arrival, or a parked read or write the
// controller has a free slot for. Until then a tick changes nothing.
func (d *frontDoor) nextEventAt(from uint64) uint64 {
	if (d.readCount > 0 && d.mc.ReadSlotFree()) || (d.writes.Len() > 0 && d.mc.WriteSlotFree()) {
		return from
	}
	if _, at, ok := d.inbox.Peek(); ok {
		return max(at, from)
	}
	return sim.NoEvent
}
