package soc

import (
	"math/bits"

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
type frontDoor struct {
	sys *System
	mc  int

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

// tick drains arrivals and admits requests into freed front-end slots.
func (d *frontDoor) tick(now uint64) {
	for {
		pkt, ok := d.inbox.Pop(now)
		if !ok {
			break
		}
		d.park(pkt)
	}
	mc := d.sys.mcs[d.mc]
	// Reads: round-robin across classes with waiting requests. The pointer
	// moves past the class it stops at, served or refused.
	for d.waiting != 0 {
		ahead := bits.TrailingZeros16(bits.RotateLeft16(d.waiting, -d.rrNext))
		cls := (d.rrNext + ahead) % mem.MaxClasses
		d.rrNext = (cls + 1) % mem.MaxClasses
		if !mc.TryReserveRead() {
			break
		}
		q := &d.reads[cls]
		pkt, _ := q.PopFront()
		mc.ArriveRead(pkt, now)
		d.readCount--
		if q.Len() == 0 {
			d.waiting &^= 1 << cls
		}
	}
	// Writes: FIFO (never prioritized, per the paper).
	for d.writes.Len() > 0 && mc.TryReserveWrite() {
		pkt, _ := d.writes.PopFront()
		mc.ArriveWrite(pkt, now)
	}
}
