package soc

import (
	"fmt"

	"pabst/internal/cache"
	"pabst/internal/cpu"
	"pabst/internal/mem"
	"pabst/internal/qospolicy"
	"pabst/internal/regulate"
	"pabst/internal/sim"
	"pabst/internal/stats"
	"pabst/internal/workload"
)

// Tile is one node of the mesh: a core, its private L2, the PABST source
// regulator gating L2 misses into the network, and the MSHRs tracking
// outstanding misses.
type Tile struct {
	sys   *System
	id    int
	class mem.ClassID

	core *cpu.Core
	l1   *cache.Cache
	l2   *cache.Cache
	src  regulate.Source

	// wd is non-nil only when the source regulator degrades gracefully
	// AND the machine has a fault plan, so clean runs pay one nil check
	// per cycle.
	wd regulate.Watchdog

	inbox sim.DelayQueue[*mem.Packet]

	// mshr maps an outstanding miss line to the core op tokens waiting
	// on it (coalescing). Its population is the MSHR occupancy.
	mshr *mshrTable

	// missQ holds misses awaiting pacer clearance to enter the NoC, one
	// FIFO per destination controller so per-MC pacing never suffers
	// head-of-line blocking across channels.
	missQ  []sim.Ring[*mem.Packet]
	queued int
	rrMC   int

	// pool recycles this tile's miss packets. Every read the tile
	// injects returns to this tile (responses route to SrcTile).
	pool mem.Pool

	// lat is the tile's end-to-end L2-miss latency histogram (network
	// injection to response arrival), written only on this tile's tick;
	// readers merge per class (see System.ClassTailLatency).
	lat stats.Hist
}

func newTile(s *System, id int, class mem.ClassID, gen workload.Generator) (*Tile, error) {
	t := &Tile{
		sys:   s,
		id:    id,
		class: class,
		l1: cache.New(cache.Config{
			SizeBytes: s.cfg.L1Bytes,
			Ways:      s.cfg.L1Ways,
		}),
		l2: cache.New(cache.Config{
			SizeBytes: s.cfg.L2Bytes,
			Ways:      s.cfg.L2Ways,
		}),
		mshr:  newMSHRTable(s.cfg.MaxMSHRs),
		missQ: make([]sim.Ring[*mem.Packet], s.cfg.NumMCs),
	}
	// Pre-size every structure whose occupancy is bounded by the MSHR
	// count, so the steady-state miss path never grows a backing array:
	// at most MaxMSHRs misses are outstanding, each holding one pooled
	// packet, queued toward one MC, with one response in flight back.
	t.pool.Grow(s.cfg.MaxMSHRs)
	t.inbox.Grow(s.cfg.MaxMSHRs)
	for i := range t.missQ {
		t.missQ[i].Grow(s.cfg.MaxMSHRs)
	}
	src, err := qospolicy.NewSource(s.pair.Source, qospolicy.SourceEnv{
		Params:            s.cfg.PABST,
		Reg:               s.reg,
		Class:             class,
		NumMCs:            s.cfg.NumMCs,
		MCOf:              s.mcOf,
		PeakBytesPerCycle: s.cfg.PeakBytesPerCycle(),
	})
	if err != nil {
		return nil, err
	}
	t.src = src
	if wd, ok := t.src.(regulate.Watchdog); ok && s.faults != nil {
		t.wd = wd
	}
	core, err := cpu.New(id, s.cfg.Core, gen, t)
	if err != nil {
		return nil, err
	}
	t.core = core
	return t, nil
}

// Class returns the QoS class running on the tile.
func (t *Tile) Class() mem.ClassID { return t.class }

// Core returns the tile's CPU.
func (t *Tile) Core() *cpu.Core { return t.core }

// Source returns the tile's source regulator.
func (t *Tile) Source() regulate.Source { return t.src }

// Access implements cpu.MemPort: the L1/L2 lookups plus the miss path.
// It is where a generator's address enters the cache hierarchy, so it
// drops the bits above the machine's physical address width
// (mem.AddrBits) as the address decoder does: the caches have no room
// for them.
func (t *Tile) Access(addr mem.Addr, write bool, now uint64, token uint64) (cpu.AccessStatus, uint64) {
	line := addr.Phys().Line()
	lineID := line.LineID()

	// Coalesce with an outstanding miss to the same line before probing
	// the caches: the fill has not arrived yet (the cache state was
	// updated optimistically at miss time, so a lookup would hit).
	if e := t.mshr.lookup(lineID); e != nil {
		e.addWaiter(token)
		return cpu.AccessPending, 0
	}

	// A would-be miss with the MSHR table full is refused before it
	// touches any cache state, so every frame a miss allocates is paid
	// for by a memory read and a blocked core is idle until a response
	// frees an entry. Past this check the access hits L1, hits L2 (an L1
	// victim's writeback never allocates there), or has an MSHR.
	if t.mshr.len() >= t.sys.cfg.MaxMSHRs && !t.l1.Contains(line) && !t.l2.Contains(line) {
		return cpu.AccessBlocked, 0
	}

	l1res := t.l1.Access(line, write, t.class)
	if l1res.Hit {
		return cpu.AccessDone, now + uint64(t.sys.cfg.L1HitLat)
	}
	// The L1 fill displaced a dirty line: write it back into the L2, or
	// onward to the shared cache if the (non-inclusive) L2 no longer
	// holds it.
	if l1res.Evicted && l1res.Victim.Dirty {
		if !t.l2.Writeback(l1res.Victim.Addr, t.class) {
			t.sys.l2Writeback(l1res.Victim.Addr, t.class, now)
		}
	}

	res := t.l2.Access(line, false, t.class)
	if res.Hit {
		return cpu.AccessDone, now + uint64(t.sys.cfg.L2HitLat)
	}
	t.mshr.insert(lineID, token)
	pkt := t.newMiss(line)
	t.missQ[pkt.MC].PushBack(pkt)
	t.queued++
	t.src.OnDemand(now)

	// A displaced dirty line is written back into the shared cache.
	if res.Evicted && res.Victim.Dirty {
		t.sys.l2Writeback(res.Victim.Addr, t.class, now)
	}
	return cpu.AccessPending, 0
}

// newMiss fills a pooled packet for an L2 miss to line. The tile owns
// the packet until it injects it into the NoC; it regains ownership when
// the response lands in its inbox and releases it back to the pool.
func (t *Tile) newMiss(line mem.Addr) *mem.Packet {
	pkt := t.pool.Get()
	pkt.Addr = line
	pkt.Kind = mem.Read
	pkt.Class = t.class
	pkt.SrcTile = t.id
	pkt.MC = t.sys.mcOf(line)
	return pkt
}

// Tick drains responses, injects paced misses, and steps the core.
func (t *Tile) Tick(now uint64) {
	if t.wd != nil {
		t.wd.WatchdogTick(now)
	}
	for {
		pkt, ok := t.inbox.Pop(now)
		if !ok {
			break
		}
		t.src.OnResponse(pkt, now)
		t.lat.Add(now - pkt.Issue)
		t.sys.e2eLatSum[pkt.Class] += now - pkt.Issue
		t.sys.e2eLatCnt[pkt.Class]++
		lineID := pkt.Addr.LineID()
		e := t.mshr.lookup(lineID)
		if e == nil {
			panic(fmt.Sprintf("soc: response for line %#x with no MSHR", lineID))
		}
		// CompleteMiss never re-enters the MSHR (it only arms gap-queue
		// wakeups), so draining waiters before removing the entry is safe.
		for i := int32(0); i < e.n; i++ {
			t.core.CompleteMiss(e.waiter(i), now)
		}
		t.mshr.remove(lineID)
		// The response's round trip is over; the tile owns it again and
		// recycles it for a future miss.
		t.pool.Put(pkt)
	}

	// One network injection per cycle, gated by the pacer of the miss's
	// destination channel; round-robin across channels so a throttled
	// channel never blocks the others.
	if t.queued > 0 {
		for tries := 0; tries < len(t.missQ); tries++ {
			mc := t.rrMC
			if t.rrMC++; t.rrMC == len(t.missQ) {
				t.rrMC = 0
			}
			q := &t.missQ[mc]
			if q.Len() == 0 || !t.src.CanIssue(now, mc) {
				continue
			}
			pkt, _ := q.Front()
			slice := t.sys.sliceOf(pkt.Addr)
			var faultLat uint64
			if t.sys.faults != nil {
				// An injected drop refuses this cycle's injection; the
				// miss retries next cycle like any backpressured send.
				// The draw comes from this tile's own stream.
				drop, delay := t.sys.faults.NoCSendTile(t.id)
				if drop {
					break
				}
				faultLat = delay
			}
			if t.sys.net != nil {
				// Modeled fabric: injection can be refused; retry the
				// same miss next cycle without charging the pacer.
				if !t.sys.net.TrySend(pkt, t.sys.net.TileNode(t.id), t.sys.net.TileNode(slice), false) {
					break
				}
				t.sys.wakeNet(t.sys.nextCycle(now))
			} else {
				lat := uint64(t.sys.mesh.TileToTile(t.id, slice)) + faultLat
				t.sys.slices[slice].inbox.Push(pkt, now+lat)
				t.sys.wakeSlice(slice, t.sys.nextCycle(now+lat))
			}
			q.PopFront()
			t.queued--
			t.src.OnIssue(now, mc)
			pkt.Issue = now
			break
		}
	}

	t.core.Tick(now)
}

// l2Writeback folds an evicted dirty L2 line back into the shared cache.
// If the L3 still holds the line it is merely dirtied; otherwise the data
// heads to memory as a writeback (write-no-allocate), modeling the
// bandwidth without inventing a fill.
func (s *System) l2Writeback(addr mem.Addr, class mem.ClassID, now uint64) {
	slice := s.slices[s.sliceOf(addr)]
	if slice.cache.Writeback(addr, class) {
		return
	}
	pkt := slice.wbPool.Get()
	pkt.Addr = addr.Line()
	pkt.Kind = mem.Writeback
	pkt.Class = class
	pkt.SrcTile = slice.id
	slice.sendToMC(pkt, now)
}
