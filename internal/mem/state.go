package mem

import (
	"fmt"

	"pabst/internal/ckpt"
)

// PacketBytes is the encoded size of one packet (every field is
// fixed-width), the element size containers of packets hand to the
// codec's length rule.
const PacketBytes = 54

// CkptPacket walks every field of a packet, allocating it when loading.
// Packets obey a single-residency invariant — at any instant each live
// packet sits in exactly one queue — so queues store their packets by
// value and a load allocates fresh ones without aliasing concerns. The
// machine indexes with Kind, Class, SrcTile and MC long after the load,
// so each is range-checked against the codec's Limits here, and Addr
// reaches the caches, so it must fit the machine's AddrBits. A loaded
// packet is handed to the codec's OnLoad hook (the machine's check of
// reads in flight).
func CkptPacket(c *ckpt.Codec, pp **Packet) {
	if c.Loading() {
		*pp = &Packet{}
	}
	p := *pp
	c.U64((*uint64)(&p.Addr))
	if c.Loading() && p.Addr != p.Addr.Phys() {
		c.Fail(fmt.Errorf("%w: packet address %#x beyond the %d-bit physical address space", ckpt.ErrCorrupt, uint64(p.Addr), AddrBits))
		p.Addr = 0
	}
	c.Enum((*uint8)(&p.Kind), int(Writeback)+1)
	c.Enum((*uint8)(&p.Class), c.Limits.Classes)
	c.Index(&p.SrcTile, c.Limits.Tiles)
	c.Bool(&p.Resp)
	c.Bool(&p.L3Hit)
	c.Bool(&p.WBGen)
	c.Bool(&p.DirtyFill)
	c.Index(&p.MC, c.Limits.MCs)
	c.U64(&p.Deadline)
	c.U64(&p.Enq)
	c.U64(&p.Issue)
	c.Loaded(p)
}

// CkptPackets walks a packet slice in order, preserving nil vs empty.
func CkptPackets(c *ckpt.Codec, ps *[]*Packet) {
	ckpt.NilSlice(c, ps, PacketBytes, CkptPacket)
}
