package cpu

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// Ckpt implements ckpt.Walker. Structural fields (ID, config, generator,
// port, observer hooks) are rebuilt by the system; everything the
// pipeline has in flight — the slot ring, the gap queue, the ready FIFO —
// is stored verbatim so a restored core issues the identical op sequence
// from the identical cycle. A window [head, tail) wider than the ring or
// holding a slot of another op is ErrCorrupt: retire and fill would walk
// it for up to 2^64 ops.
func (c *Core) Ckpt(k *ckpt.Codec) {
	if !k.Same(len(c.slots), "core window") {
		return
	}
	for i := range c.slots {
		s := &c.slots[i]
		workload.CkptOp(k, &s.op)
		k.U64(&s.seq)
		k.Enum((*uint8)(&s.state), int(slotDone)+1)
		k.U64(&s.fetchAt)
		k.U64(&s.doneAt)
		k.U64(&s.waiter)
		k.Bool(&s.hasWait)
	}
	k.U64(&c.head)
	k.U64(&c.tail)
	if k.Loading() && k.Err() == nil {
		ok := c.head <= c.tail && c.tail-c.head <= uint64(len(c.slots))
		for seq := c.head; ok && seq < c.tail; seq++ {
			ok = c.slotAt(seq).seq == seq
		}
		if !ok {
			k.Fail(fmt.Errorf("%w: core window [%d, %d) does not hold its own ops", ckpt.ErrCorrupt, c.head, c.tail))
		}
	}
	k.U64(&c.fetchClock)
	sim.CkptDelayQueue(k, &c.gapQ, 8, (*ckpt.Codec).U64)
	sim.CkptRing(k, &c.readyQ, 8, (*ckpt.Codec).U64)
	k.Int(&c.outstanding)
	k.U64(&c.instsRetired)
	k.U64(&c.opsRetired)
	k.U64(&c.cycles)
	k.U64(&c.baseInsts)
	k.U64(&c.baseCycles)
}
