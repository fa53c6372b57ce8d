package dram

import (
	"sort"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// Ckpt implements ckpt.Walker: front-end queues (in arrival order),
// per-bank timing, bus/mode registers, the saturation-monitor
// integrals, the freeze deadline, and every stat counter.
// Geometry, scheduler selection, the arbiter, and the responder closure
// are structural and rebuilt from the config.
//
// The byte layout is the flat-queue format the controller has always
// used: the scheduling index is an acceleration structure, so a save
// linearizes it back to arrival order (the order the old readQ/writeQ
// slices held) before the walk and a load rebuilds the index from that
// list after it. Nothing about the packet pool or node slab is stored —
// see the ownership contract on mem.Pool.
//
// The reservation counters are stored too: they are always zero between
// full system ticks (a reservation is granted and consumed within one
// tick), but storing them keeps the walk honest if that invariant ever
// changes — a nonzero restored value is exactly as saved, not guessed.
func (c *Controller) Ckpt(k *ckpt.Codec) {
	var reads, writes []*mem.Packet
	if !k.Loading() {
		reads, writes = c.frontReads(), c.frontWrites()
	}
	mem.CkptPackets(k, &reads)
	mem.CkptPackets(k, &writes)
	k.Int(&c.reservedReads)
	k.Int(&c.reservedWrites)
	if !k.Same(len(c.banks), "DRAM banks") {
		return
	}
	for i := range c.banks {
		k.U64(&c.readyAt[i])
		k.I64(&c.banks[i].openRow)
	}
	k.U64(&c.busFreeAt)
	k.Bool(&c.lastWrite)
	k.Bool(&c.writeMode)
	k.U64(&c.occIntegral)
	k.U64(&c.occCycles)
	k.U64(&c.frozenUntil)

	s := &c.Stats
	k.U64(&s.ReadsServed)
	k.U64(&s.WritesServed)
	k.U64s(s.BytesByClass[:])
	k.U64(&s.ReadLatencySum)
	k.U64s(s.ReadsByClass[:])
	k.U64s(s.ReadLatencyByClass[:])
	k.U64(&s.BusBusyCycles)
	k.U64(&s.PendingCycles)
	k.U64(&s.RowHits)
	k.U64(&s.PriorityInversions)

	if !k.Loading() || k.Err() != nil {
		return
	}
	// Rebuild the scheduling index from the linearized queues. Arrival
	// sequence numbers restart from zero; only their relative order
	// matters, and insertion in list order reproduces it.
	c.fe = newFrontSched(c.cfg.Banks, c.cfg.FrontReadQ)
	c.fe.edf = c.sched == SchedEDF
	for _, pkt := range reads {
		c.insertRead(pkt)
	}
	for i := range c.banks {
		c.banks[i].writes.Clear()
	}
	c.nWrites = 0
	c.wseq = 0
	for _, pkt := range writes {
		c.insertWrite(pkt)
	}
}

// frontReads linearizes the front-end read index back to arrival order.
func (c *Controller) frontReads() []*mem.Packet {
	entries := make([]wentry, 0, c.fe.count)
	for b := range c.fe.banks {
		for _, id := range c.fe.banks[b].items {
			n := &c.fe.nodes[id]
			entries = append(entries, wentry{n.pkt, n.seq})
		}
	}
	return inArrivalOrder(entries)
}

// frontWrites linearizes the per-bank write buckets back to arrival order.
func (c *Controller) frontWrites() []*mem.Packet {
	entries := make([]wentry, 0, c.nWrites)
	for b := range c.banks {
		wq := &c.banks[b].writes
		for j := 0; j < wq.Len(); j++ {
			entries = append(entries, wq.At(j))
		}
	}
	return inArrivalOrder(entries)
}

func inArrivalOrder(entries []wentry) []*mem.Packet {
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]*mem.Packet, len(entries))
	for i := range entries {
		out[i] = entries[i].pkt
	}
	return out
}
