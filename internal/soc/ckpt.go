package soc

import (
	"fmt"
	"slices"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// AttachmentInfo describes one tile's workload attachment — the raw
// material for checkpoint metadata.
type AttachmentInfo struct {
	Tile  int
	Class mem.ClassID
	Gen   workload.Generator
}

// Attachments returns every attached tile in tile order.
func (s *System) Attachments() []AttachmentInfo {
	var out []AttachmentInfo
	for id, t := range s.tiles {
		if t == nil {
			continue
		}
		out = append(out, AttachmentInfo{Tile: id, Class: t.class, Gen: t.core.Generator()})
	}
	return out
}

// Ckpt implements ckpt.Walker for the whole machine. The walk visits
// components in a fixed canonical order — kernel clock, QoS registry,
// bandwidth series, system-level scalars, the delayed-heartbeat queue,
// then tiles, slices, front doors, controllers, fabric, and faults —
// with section tags between groups so a desynchronized image fails
// loudly instead of silently misparsing. Everything not visited here is
// structural: it is rebuilt identically by New/Attach/Finalize from the
// configuration in the checkpoint header's metadata.
//
// Loading overlays a freshly built, finalized system, built from that
// metadata; the walk catches the structural disagreements it trips over
// as ErrMismatch. The system knows the geometry, so it hands the codec
// the bounds every loaded tile, controller and class index must respect,
// and from its tiles on it checks every read in flight (readCheck).
func (s *System) Ckpt(c *ckpt.Codec) {
	if !s.finalized {
		c.Fail(fmt.Errorf("%w: checkpoint or restore before Finalize", ckpt.ErrUnsupported))
		return
	}
	c.Limits = s.limits()

	c.Section("kernel")
	s.kernel.Ckpt(c)

	c.Section("qos")
	s.reg.Ckpt(c)

	c.Section("series")
	s.series.Ckpt(c)

	c.Section("system")
	c.Bool(&s.satLast)
	c.U64(&s.epochs)
	c.U64(&s.divergeMax)
	c.U64(&s.divergeEpochs)
	c.U64(&s.reconvLast)
	c.U64(&s.divergeSince)
	c.U64(&s.divergeCurrent)
	c.U64s(s.e2eLatSum[:])
	c.U64s(s.e2eLatCnt[:])
	s.base.ckpt(c)
	for cl := range s.baseLat {
		s.baseLat[cl].Ckpt(c)
	}
	c.U64s(s.obsBytes[:])
	ckpt.NilSlice(c, &s.obsMC, 40, func(c *ckpt.Codec, p *obsMCPrev) {
		c.U64(&p.reads)
		c.U64(&p.writes)
		c.U64(&p.rowHits)
		c.U64(&p.busBusy)
		c.U64(&p.inversions)
	})
	if s.obsMC != nil && len(s.obsMC) != len(s.mcs) {
		c.Fail(fmt.Errorf("%w: %d observed controllers, system has %d", ckpt.ErrMismatch, len(s.obsMC), len(s.mcs)))
	}
	c.U64(&s.obsFault.injected)
	c.U64(&s.obsFault.stale)
	c.U64(&s.obsFault.decays)
	c.U64(&s.obsFault.resync)

	c.Section("epochq")
	sim.CkptDelayQueue(c, &s.epochQ, 26, ckptEpochMsg)

	c.Section("tiles")
	for _, t := range s.tiles {
		if t != nil { // idle tiles are structural (no attachment, no state)
			t.ckpt(c)
		}
	}
	if c.Loading() && c.Err() == nil {
		c.OnLoad = s.readCheck(c)
	}

	c.Section("slices")
	for _, sl := range s.slices {
		sl.ckpt(c)
	}

	c.Section("doors")
	for _, d := range s.doors {
		d.ckpt(c)
	}

	c.Section("mcs")
	for i, mc := range s.mcs {
		mc.Ckpt(c)
		if arb, ok := s.arbs[i].(ckpt.Walker); ok {
			arb.Ckpt(c)
		}
	}

	if s.net != nil {
		c.Section("net")
		s.net.Ckpt(c)
		for i := range s.mcOut {
			sim.CkptDelayQueue(c, &s.mcOut[i], mem.PacketBytes, mem.CkptPacket)
		}
	}

	if s.faults != nil {
		c.Section("faults")
		s.faults.Ckpt(c)
	}
}

// CkptSize implements ckpt.Sizer, so a save allocates its image once:
// the cache lines and the bandwidth series exactly (their counts give
// their size), plus an allowance for the rest — per attached tile its
// core window and queues, and the header, scalars and controllers.
func (s *System) CkptSize() int {
	n := 64<<10 + len(s.series.Samples)*(1+mem.MaxClasses)*8
	for _, t := range s.tiles {
		if t != nil {
			n += t.l1.CkptSize() + t.l2.CkptSize() + 64*s.cfg.Core.WindowOps + 4<<10
		}
	}
	for _, sl := range s.slices {
		n += sl.cache.CkptSize()
	}
	return n
}

// readCheck returns the load hook that fails a load in which a read in
// flight — answered or queued at a tile, or waiting at a slice, a door, a
// controller or in the fabric — names a tile without an MSHR for its
// line, or shares that MSHR with another read: its response would find
// no entry, and Tick panics. It is armed once every tile, and so every
// MSHR, is loaded, and first claims the reads the tiles hold, each of
// which must be its holder's own.
func (s *System) readCheck(c *ckpt.Codec) func(any) {
	claimed := make([][]bool, len(s.tiles)) // per tile, per MSHR
	for i, t := range s.tiles {
		if t != nil {
			claimed[i] = make([]bool, t.mshr.len())
		}
	}
	claim := func(v any) {
		pkt, ok := v.(*mem.Packet)
		if !ok || pkt.Kind != mem.Read || c.Err() != nil {
			return
		}
		line, i := pkt.Addr.LineID(), -1
		if t := s.tiles[pkt.SrcTile]; t != nil {
			i = slices.Index(t.mshr.lines, line)
		}
		if i < 0 || claimed[pkt.SrcTile][i] {
			c.Fail(fmt.Errorf("%w: a read of line %#x for tile %d has no MSHR of its own", ckpt.ErrCorrupt, line, pkt.SrcTile))
			return
		}
		claimed[pkt.SrcTile][i] = true
	}
	held := func(t *Tile, pkt *mem.Packet) {
		if pkt.SrcTile != t.id {
			c.Fail(fmt.Errorf("%w: tile %d holds a read for tile %d", ckpt.ErrCorrupt, t.id, pkt.SrcTile))
		}
		claim(pkt)
	}
	for _, t := range s.tiles {
		for i := 0; t != nil && i < t.inbox.Len(); i++ {
			held(t, t.inbox.At(i))
		}
		for q := 0; t != nil && q < len(t.missQ); q++ {
			for j := 0; j < t.missQ[q].Len(); j++ {
				held(t, t.missQ[q].At(j))
			}
		}
	}
	return claim
}

// limits are the bounds a loaded tile, controller or class index must
// respect on this machine.
func (s *System) limits() ckpt.Limits {
	return ckpt.Limits{Tiles: len(s.tiles), MCs: len(s.mcs), Classes: len(s.reg.Classes())}
}

func (sn *snapshot) ckpt(c *ckpt.Codec) {
	c.U64(&sn.cycle)
	c.U64s(sn.bytes[:])
	c.U64(&sn.busBusy)
	c.U64(&sn.pending)
	c.U64(&sn.reads)
	c.U64(&sn.writes)
	c.U64(&sn.readLat)
	c.U64(&sn.rowHits)
	c.U64s(sn.e2eLatSum[:])
	c.U64s(sn.e2eLatCnt[:])
	ckpt.NilSlice(c, &sn.busPerMC, 8, (*ckpt.Codec).U64)
}

func ckptEpochMsg(c *ckpt.Codec, m *epochMsg) {
	c.Index(&m.tile, c.Limits.Tiles)
	c.Bool(&m.sat)
	ckpt.Slice(c, &m.perMC, 1, (*ckpt.Codec).Bool)
	c.Bool(&m.resync)
	c.U64(&m.gossip)
}

// ckpt walks one tile: core, private caches, source regulator, response
// inbox, MSHRs, per-channel miss FIFOs, and the workload generator. A
// generator that cannot describe its own state makes the whole
// checkpoint fail with ErrUnsupported rather than silently dropping its
// cursor. Parts that disagree as no running tile's do are ErrCorrupt.
func (t *Tile) ckpt(c *ckpt.Codec) {
	t.core.Ckpt(c)
	t.l1.Ckpt(c)
	t.l2.Ckpt(c)
	// A source regulator has state iff it is a Walker (Unthrottled is
	// not); the stored flag must agree with the one this machine built.
	src, stateful := t.src.(ckpt.Walker)
	stored := stateful
	c.Bool(&stored)
	if stored != stateful {
		c.Fail(fmt.Errorf("%w: tile %d source state: checkpoint has it %v, this system %v", ckpt.ErrMismatch, t.id, stored, stateful))
	}
	if stateful {
		src.Ckpt(c)
	}
	sim.CkptDelayQueue(c, &t.inbox, mem.PacketBytes, mem.CkptPacket)
	t.mshr.ckpt(c)
	for i := range t.missQ {
		sim.CkptRing(c, &t.missQ[i], mem.PacketBytes, mem.CkptPacket)
	}
	c.Int(&t.queued)
	if c.Loading() && c.Err() == nil {
		t.checkLoaded(c)
	}
	c.Index(&t.rrMC, len(t.missQ))
	t.lat.Ckpt(c)

	gen := t.core.Generator()
	if w, ok := gen.(ckpt.Walker); ok {
		w.Ckpt(c)
	} else {
		c.Fail(fmt.Errorf("%w: generator %q cannot be checkpointed", ckpt.ErrUnsupported, gen.Name()))
	}
}

// checkLoaded fails a load whose core, MSHRs and miss FIFOs disagree:
// every MSHR waiter must be a distinct op awaiting a miss, and the queued
// count must be the FIFOs' total, or the tile stops injecting. The reads
// the tile holds are readCheck's.
func (t *Tile) checkLoaded(c *ckpt.Codec) {
	waiting := map[uint64]bool{}
	for i := range t.mshr.entries {
		for j := int32(0); j < t.mshr.entries[i].n; j++ {
			tok := t.mshr.entries[i].waiter(j)
			if !t.core.AwaitsMiss(tok) || waiting[tok] {
				c.Fail(fmt.Errorf("%w: tile %d: MSHR waiter %d is no op awaiting a miss", ckpt.ErrCorrupt, t.id, tok))
				return
			}
			waiting[tok] = true
		}
	}
	queued := 0
	for i := range t.missQ {
		queued += t.missQ[i].Len()
	}
	if t.queued != queued {
		c.Fail(fmt.Errorf("%w: tile %d: %d misses queued, FIFOs hold %d", ckpt.ErrCorrupt, t.id, t.queued, queued))
	}
}

// ckpt walks the MSHRs. The stored form is one (line, waiter tokens)
// record per outstanding miss in ascending line order (the table keeps
// its lines in insertion order, shuffled by removals; checkpoints must
// not depend on either). An image claiming more misses than the tile
// has MSHRs is corrupt: no machine holds more. So is one whose lines do
// not strictly ascend: a repeated line would leave a second entry that
// no response frees, and the ops waiting on it would hang. So is a
// record with no waiter: every miss is taken by an op that waits on it.
func (t *mshrTable) ckpt(c *ckpt.Codec) {
	var lines []uint64
	if !c.Loading() {
		lines = t.sortedLines(make([]uint64, 0, t.len()))
	}
	n := len(lines)
	c.Len(&n, 16)
	if c.Loading() {
		if n > cap(t.lines) {
			c.Fail(fmt.Errorf("%w: %d outstanding misses on a tile of %d MSHRs", ckpt.ErrCorrupt, n, cap(t.lines)))
			return
		}
		t.reset()
	}
	for i := 0; i < n; i++ {
		var line uint64
		var waiters []uint64
		if !c.Loading() {
			line = lines[i]
			e := t.lookup(line)
			waiters = make([]uint64, e.n)
			for j := range waiters {
				waiters[j] = e.waiter(int32(j))
			}
		}
		c.U64(&line)
		ckpt.NilSlice(c, &waiters, 8, (*ckpt.Codec).U64)
		if c.Loading() && i > 0 && line <= t.lines[i-1] {
			c.Fail(fmt.Errorf("%w: MSHR line %#x stored after %#x", ckpt.ErrCorrupt, line, t.lines[i-1]))
			return
		}
		if c.Loading() {
			if len(waiters) == 0 {
				c.Fail(fmt.Errorf("%w: MSHR line %#x has no waiter", ckpt.ErrCorrupt, line))
				return
			}
			t.insert(line, waiters[0])
			e := &t.entries[i]
			for _, tok := range waiters[1:] {
				e.addWaiter(tok)
			}
		}
	}
}

func (sl *Slice) ckpt(c *ckpt.Codec) {
	sl.cache.Ckpt(c)
	sim.CkptDelayQueue(c, &sl.inbox, mem.PacketBytes, mem.CkptPacket)
	sim.CkptDelayQueue(c, &sl.out, mem.PacketBytes+9, func(c *ckpt.Codec, m *outMsg) {
		mem.CkptPacket(c, &m.pkt)
		c.Index(&m.dst, c.Limits.Tiles+c.Limits.MCs)
		c.Bool(&m.data)
	})
	c.U64(&sl.Hits)
	c.U64(&sl.Misses)
	c.U64s(sl.WBByClass[:])
}

func (d *frontDoor) ckpt(c *ckpt.Codec) {
	sim.CkptDelayQueue(c, &d.inbox, mem.PacketBytes, mem.CkptPacket)
	if c.Loading() {
		d.waiting = 0
	}
	for cl := range d.reads {
		sim.CkptRing(c, &d.reads[cl], mem.PacketBytes, mem.CkptPacket)
		if d.reads[cl].Len() > 0 {
			d.waiting |= 1 << cl
		}
	}
	c.Int(&d.readCount)
	c.Index(&d.rrNext, mem.MaxClasses)
	sim.CkptRing(c, &d.writes, mem.PacketBytes, mem.CkptPacket)
}
