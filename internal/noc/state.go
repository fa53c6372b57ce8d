package noc

import (
	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/sim"
)

// Ckpt implements ckpt.Walker: every router's input queues (packets in
// flight through the fabric), output-port busy windows, and round-robin
// pointer, plus the fabric stats. Geometry and the delivery callback are
// structural.
func (n *Network) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(n.routers), "fabric routers") {
		return
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		queued := 0
		for p := range r.in {
			sim.CkptRing(c, &r.in[p], mem.PacketBytes+24, n.ckptMsg)
			queued += r.in[p].Len()
		}
		if c.Loading() {
			r.inFlight = queued
		}
		c.U64s(r.busy[:])
		c.Index(&r.rrNext, numPorts)
		c.U64(&r.injectFails)
	}
	c.U64(&n.Delivered)
	c.U64(&n.TotalHops)
}

func (n *Network) ckptMsg(c *ckpt.Codec, m *netMsg) {
	mem.CkptPacket(c, &m.pkt)
	c.Index(&m.dst, len(n.nodeRouter))
	c.Int(&m.flits)
	c.U64(&m.readyAt)
}
