package soc

import (
	"pabst/internal/cache"
	"pabst/internal/mem"
	"pabst/internal/sim"
)

// Slice is one bank of the shared, way-partitioned L3. It services demand
// requests arriving over the mesh; misses and the dirty victims their
// fills displace are forwarded to the owning memory controller's front
// door, where they wait for a bounded front-end slot.
type Slice struct {
	sys *System
	id  int // tile id of this slice

	cache *cache.Cache
	inbox sim.DelayQueue[*mem.Packet]

	// out holds messages awaiting injection into the modeled network
	// (unused in latency-only mode). Entries become ready after the
	// slice's array access latency.
	out sim.DelayQueue[outMsg]

	// wbPool recycles this slice's writeback packets (L2 and L3 dirty
	// victims routed through it); controllers release served writebacks
	// back to it (see System.releaseWB). Pool identity is invisible to
	// simulated outcomes — packets are zeroed on release and fully
	// rewritten on reuse.
	wbPool mem.Pool

	// Stats.
	Hits, Misses uint64
	// WBByClass counts demand-eviction writebacks by the class billed
	// under the active Section V-C policy.
	WBByClass [mem.MaxClasses]uint64
}

// outMsg is a network-bound message with its destination node and
// whether it carries line data.
type outMsg struct {
	pkt  *mem.Packet
	dst  int
	data bool
}

// sliceOutCap bounds the outbox before the slice stalls new demand
// processing (injection backpressure reaching the pipeline).
const sliceOutCap = 16

func newSlice(s *System, id int) *Slice {
	return &Slice{
		sys: s,
		id:  id,
		cache: cache.New(cache.Config{
			SizeBytes: s.cfg.L3SliceBytes,
			Ways:      s.cfg.L3Ways,
		}),
	}
}

// sendToMC forwards a packet to its controller's front door: directly
// over the latency-only mesh, or via the slice outbox when the network
// is modeled. Writebacks carry data; read requests do not.
func (sl *Slice) sendToMC(pkt *mem.Packet, now uint64) {
	mc := sl.sys.mcOf(pkt.Addr)
	pkt.MC = mc
	if sl.sys.net != nil {
		sl.out.Push(outMsg{pkt: pkt, dst: sl.sys.net.MCNode(mc), data: pkt.Kind == mem.Writeback}, now)
		sl.sys.wakeSlice(sl.id, sl.sys.nextCycle(now))
		return
	}
	lat := uint64(sl.sys.mesh.TileToMC(sl.id, mc))
	sl.sys.doors[mc].inbox.Push(pkt, now+lat)
	sl.sys.wakeMC(mc, sl.sys.nextCycle(now+lat))
}

// respond returns a serviced request to its source tile.
func (sl *Slice) respond(pkt *mem.Packet, now uint64) {
	pkt.Resp = true
	if sl.sys.net != nil {
		sl.out.Push(outMsg{pkt: pkt, dst: sl.sys.net.TileNode(pkt.SrcTile), data: true}, now+uint64(sl.sys.cfg.L3HitLat))
		sl.sys.wakeSlice(sl.id, sl.sys.nextCycle(now+uint64(sl.sys.cfg.L3HitLat)))
		return
	}
	lat := uint64(sl.sys.cfg.L3HitLat) + uint64(sl.sys.mesh.TileToTile(sl.id, pkt.SrcTile))
	sl.sys.tiles[pkt.SrcTile].inbox.Push(pkt, now+lat)
	sl.sys.wakeTile(pkt.SrcTile, now+lat)
}

// drainOut injects ready outbox messages into the modeled network,
// retrying under backpressure.
func (sl *Slice) drainOut(now uint64) {
	for {
		msg, at, ok := sl.out.Peek()
		if !ok || at > now {
			return
		}
		if !sl.sys.net.TrySend(msg.pkt, sl.sys.net.TileNode(sl.id), msg.dst, msg.data) {
			return
		}
		sl.sys.wakeNet(sl.sys.nextCycle(now))
		sl.out.Pop(now)
	}
}

// Tick services one demand request per cycle.
func (sl *Slice) Tick(now uint64) {
	if sl.sys.net != nil {
		sl.drainOut(now)
		if sl.out.Len() >= sliceOutCap {
			return // injection backpressure stalls the pipeline
		}
	}
	pkt, ok := sl.inbox.Pop(now)
	if !ok {
		return
	}
	res := sl.cache.Access(pkt.Addr, false, pkt.Class)
	if res.Hit {
		sl.Hits++
		pkt.L3Hit = true
		sl.respond(pkt, now)
		return
	}
	sl.Misses++
	// The fill displaced a line; dirty victims cost write bandwidth,
	// billed per the configured Section V-C policy. With exclusive
	// partitions (the paper's evaluation setting) owner and demander
	// coincide. The pacer's writeback charge (the WBGen response flag)
	// only applies when the demander is the one billed.
	if res.Evicted && res.Victim.Dirty {
		charged := sl.sys.wbChargeClass(pkt.Class, res.Victim.Class)
		if charged == pkt.Class {
			pkt.WBGen = true
		}
		sl.WBByClass[charged]++
		sl.sendWB(res.Victim.Addr, charged, now+uint64(sl.sys.cfg.L3HitLat))
	}
	sl.sendToMC(pkt, now+uint64(sl.sys.cfg.L3HitLat))
}

// sendWB forwards a dirty-victim writeback to the owning controller's
// front door. The packet comes from this slice's own pool.
func (sl *Slice) sendWB(addr mem.Addr, class mem.ClassID, now uint64) {
	pkt := sl.wbPool.Get()
	pkt.Addr = addr.Line()
	pkt.Kind = mem.Writeback
	pkt.Class = class
	pkt.SrcTile = sl.id
	sl.sendToMC(pkt, now)
}
