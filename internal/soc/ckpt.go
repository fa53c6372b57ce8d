package soc

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// AttachmentInfo describes one tile's workload attachment — the raw
// material for configuration fingerprints and checkpoint metadata.
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

// SaveState implements ckpt.Saver for the whole machine. The walk visits
// components in a fixed canonical order — kernel clock, QoS registry,
// bandwidth series, system-level scalars, the delayed-heartbeat queue,
// then tiles, slices, front doors, controllers, fabric, and faults —
// with section tags between groups so a desynchronized stream fails
// loudly instead of silently misparsing. Everything not saved here is
// structural: it is rebuilt identically by New/Attach/Finalize from the
// configuration captured in the checkpoint header's fingerprint.
func (s *System) SaveState(w *ckpt.Writer) {
	if !s.finalized {
		w.Fail(fmt.Errorf("%w: checkpoint before Finalize", ckpt.ErrUnsupported))
		return
	}

	w.Section("kernel")
	s.kernel.SaveState(w)

	w.Section("qos")
	s.reg.SaveState(w)

	w.Section("series")
	s.series.SaveState(w)

	w.Section("system")
	w.Bool(s.satLast)
	w.U64(s.epochs)
	w.U64(s.divergeMax)
	w.U64(s.divergeEpochs)
	w.U64(s.reconvLast)
	w.U64(s.divergeSince)
	w.U64(s.divergeCurrent)
	for c := range s.e2eLatSum {
		w.U64(s.e2eLatSum[c])
	}
	for c := range s.e2eLatCnt {
		w.U64(s.e2eLatCnt[c])
	}
	saveSnapshot(w, &s.base)
	for c := range s.baseLat {
		s.baseLat[c].SaveState(w)
	}
	for c := range s.obsBytes {
		w.U64(s.obsBytes[c])
	}
	if s.obsMC == nil {
		w.U64(^uint64(0))
	} else {
		w.U64(uint64(len(s.obsMC)))
		for i := range s.obsMC {
			p := &s.obsMC[i]
			w.U64(p.reads)
			w.U64(p.writes)
			w.U64(p.rowHits)
			w.U64(p.refreshes)
			w.U64(p.busBusy)
			w.U64(p.inversions)
		}
	}
	w.U64(s.obsFault.injected)
	w.U64(s.obsFault.stale)
	w.U64(s.obsFault.decays)
	w.U64(s.obsFault.resync)

	w.Section("epochq")
	sim.SaveDelayQueue(w, &s.epochQ, saveEpochMsg)

	w.Section("tiles")
	for _, t := range s.tiles {
		if t == nil {
			continue // idle tiles are structural (no attachment, no state)
		}
		t.saveState(w)
	}

	w.Section("slices")
	for _, sl := range s.slices {
		sl.saveState(w)
	}

	w.Section("doors")
	for _, d := range s.doors {
		d.saveState(w)
	}

	w.Section("mcs")
	for i, mc := range s.mcs {
		mc.SaveState(w)
		if sv, ok := s.arbs[i].(ckpt.Saver); ok {
			sv.SaveState(w)
		}
	}

	if s.net != nil {
		w.Section("net")
		s.net.SaveState(w)
		for i := range s.mcOut {
			sim.SaveDelayQueue(w, &s.mcOut[i], mem.SavePacket)
		}
	}

	if s.faults != nil {
		w.Section("faults")
		s.faults.SaveState(w)
	}
}

// RestoreState implements ckpt.Restorer onto a freshly built, finalized
// system with the same configuration, mode, classes, and attachments as
// the saved one (callers verify this via the header fingerprint before
// getting here — the walk itself only catches structural disagreements
// it trips over, as ErrMismatch).
func (s *System) RestoreState(r *ckpt.Reader) {
	if !s.finalized {
		r.Fail(fmt.Errorf("%w: restore before Finalize", ckpt.ErrUnsupported))
		return
	}

	r.Section("kernel")
	s.kernel.RestoreState(r)

	r.Section("qos")
	s.reg.RestoreState(r)

	r.Section("series")
	s.series.RestoreState(r)

	r.Section("system")
	s.satLast = r.Bool()
	s.epochs = r.U64()
	s.divergeMax = r.U64()
	s.divergeEpochs = r.U64()
	s.reconvLast = r.U64()
	s.divergeSince = r.U64()
	s.divergeCurrent = r.U64()
	for c := range s.e2eLatSum {
		s.e2eLatSum[c] = r.U64()
	}
	for c := range s.e2eLatCnt {
		s.e2eLatCnt[c] = r.U64()
	}
	loadSnapshot(r, &s.base)
	for c := range s.baseLat {
		s.baseLat[c].RestoreState(r)
	}
	for c := range s.obsBytes {
		s.obsBytes[c] = r.U64()
	}
	if n := r.U64(); n == ^uint64(0) {
		s.obsMC = nil
	} else {
		if n != uint64(len(s.mcs)) {
			r.Fail(fmt.Errorf("%w: %d observed controllers, system has %d", ckpt.ErrMismatch, n, len(s.mcs)))
			return
		}
		s.obsMC = make([]obsMCPrev, n)
		for i := range s.obsMC {
			p := &s.obsMC[i]
			p.reads = r.U64()
			p.writes = r.U64()
			p.rowHits = r.U64()
			p.refreshes = r.U64()
			p.busBusy = r.U64()
			p.inversions = r.U64()
		}
	}
	s.obsFault.injected = r.U64()
	s.obsFault.stale = r.U64()
	s.obsFault.decays = r.U64()
	s.obsFault.resync = r.U64()

	r.Section("epochq")
	sim.LoadDelayQueue(r, &s.epochQ, loadEpochMsg)

	r.Section("tiles")
	for _, t := range s.tiles {
		if t == nil {
			continue
		}
		t.restoreState(r)
		if r.Err() != nil {
			return
		}
	}

	r.Section("slices")
	for _, sl := range s.slices {
		sl.restoreState(r)
		if r.Err() != nil {
			return
		}
	}

	r.Section("doors")
	for _, d := range s.doors {
		d.restoreState(r)
		if r.Err() != nil {
			return
		}
	}

	r.Section("mcs")
	for i, mc := range s.mcs {
		mc.RestoreState(r)
		if rs, ok := s.arbs[i].(ckpt.Restorer); ok {
			rs.RestoreState(r)
		}
		if r.Err() != nil {
			return
		}
	}

	if s.net != nil {
		r.Section("net")
		s.net.RestoreState(r)
		for i := range s.mcOut {
			sim.LoadDelayQueue(r, &s.mcOut[i], mem.LoadPacket)
		}
	}

	if s.faults != nil {
		r.Section("faults")
		s.faults.RestoreState(r)
	}

	// Re-derive every component's schedule and accounting horizon from
	// the overlaid state at the restored clock (no-op on the reference
	// loop).
	s.kernel.ResyncEvents()
}

func saveSnapshot(w *ckpt.Writer, sn *snapshot) {
	w.U64(sn.cycle)
	for c := range sn.bytes {
		w.U64(sn.bytes[c])
	}
	w.U64(sn.busBusy)
	w.U64(sn.pending)
	w.U64(sn.reads)
	w.U64(sn.writes)
	w.U64(sn.readLat)
	w.U64(sn.rowHits)
	for c := range sn.e2eLatSum {
		w.U64(sn.e2eLatSum[c])
	}
	for c := range sn.e2eLatCnt {
		w.U64(sn.e2eLatCnt[c])
	}
	if sn.busPerMC == nil {
		w.U64(^uint64(0))
	} else {
		w.U64(uint64(len(sn.busPerMC)))
		for _, b := range sn.busPerMC {
			w.U64(b)
		}
	}
}

func loadSnapshot(r *ckpt.Reader, sn *snapshot) {
	sn.cycle = r.U64()
	for c := range sn.bytes {
		sn.bytes[c] = r.U64()
	}
	sn.busBusy = r.U64()
	sn.pending = r.U64()
	sn.reads = r.U64()
	sn.writes = r.U64()
	sn.readLat = r.U64()
	sn.rowHits = r.U64()
	for c := range sn.e2eLatSum {
		sn.e2eLatSum[c] = r.U64()
	}
	for c := range sn.e2eLatCnt {
		sn.e2eLatCnt[c] = r.U64()
	}
	if n := r.U64(); n == ^uint64(0) {
		sn.busPerMC = nil
	} else {
		if n > 1<<16 {
			r.Fail(fmt.Errorf("%w: busPerMC length %d", ckpt.ErrCorrupt, n))
			return
		}
		sn.busPerMC = make([]uint64, n)
		for i := range sn.busPerMC {
			sn.busPerMC[i] = r.U64()
		}
	}
}

func saveEpochMsg(w *ckpt.Writer, m epochMsg) {
	w.Int(m.tile)
	w.Bool(m.sat)
	w.Int(len(m.perMC))
	for _, b := range m.perMC {
		w.Bool(b)
	}
	w.Bool(m.resync)
	w.U64(m.gossip)
}

func loadEpochMsg(r *ckpt.Reader) epochMsg {
	var m epochMsg
	m.tile = r.Int()
	m.sat = r.Bool()
	n := r.Int()
	if n < 0 || n > 1<<16 {
		r.Fail(fmt.Errorf("%w: heartbeat vector length %d", ckpt.ErrCorrupt, n))
		return m
	}
	m.perMC = make([]bool, n)
	for i := range m.perMC {
		m.perMC[i] = r.Bool()
	}
	m.resync = r.Bool()
	m.gossip = r.U64()
	return m
}

// saveState walks one tile: core, private caches, source regulator,
// response inbox, MSHRs, per-channel miss FIFOs, and the workload
// generator. A generator that cannot describe its own state makes the
// whole checkpoint fail with ErrUnsupported rather than silently
// dropping its cursor.
func (t *Tile) saveState(w *ckpt.Writer) {
	t.core.SaveState(w)
	t.l1.SaveState(w)
	t.l2.SaveState(w)
	if sv, ok := t.src.(ckpt.Saver); ok {
		w.Bool(true)
		sv.SaveState(w)
	} else {
		w.Bool(false) // Unthrottled: stateless
	}
	sim.SaveDelayQueue(w, &t.inbox, mem.SavePacket)

	// MSHRs in sorted-key order (table iteration follows hash placement;
	// checkpoints must not). The ^uint64(0) waiter count is the prefetch
	// marker — the line is in flight but no core op waits — and is
	// distinct from any demand entry.
	keys := t.mshr.sortedLines(make([]uint64, 0, t.mshr.len()))
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		e := t.mshr.lookup(k)
		if e.prefetch {
			w.U64(^uint64(0))
			continue
		}
		w.U64(uint64(e.n))
		for i := int32(0); i < e.n; i++ {
			w.U64(e.waiter(i))
		}
	}

	for i := range t.missQ {
		savePacketRing(w, &t.missQ[i])
	}
	w.Int(t.queued)
	w.Int(t.rrMC)
	w.U64(t.prefetches)
	t.lat.SaveState(w)

	gen := t.core.Generator()
	if sv, ok := gen.(ckpt.Saver); ok {
		sv.SaveState(w)
	} else {
		w.Fail(fmt.Errorf("%w: generator %q cannot be checkpointed", ckpt.ErrUnsupported, gen.Name()))
	}
}

func (t *Tile) restoreState(r *ckpt.Reader) {
	t.core.RestoreState(r)
	t.l1.RestoreState(r)
	t.l2.RestoreState(r)
	hasSrc := r.Bool()
	if res, ok := t.src.(ckpt.Restorer); ok {
		if !hasSrc {
			r.Fail(fmt.Errorf("%w: tile %d source has state, checkpoint has none", ckpt.ErrMismatch, t.id))
			return
		}
		res.RestoreState(r)
	} else if hasSrc {
		r.Fail(fmt.Errorf("%w: checkpoint carries source state for stateless tile %d", ckpt.ErrMismatch, t.id))
		return
	}
	sim.LoadDelayQueue(r, &t.inbox, mem.LoadPacket)

	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > 1<<24 {
		r.Fail(fmt.Errorf("%w: MSHR count %d", ckpt.ErrCorrupt, n))
		return
	}
	t.mshr.reset()
	for i := 0; i < n; i++ {
		k := r.U64()
		cnt := r.U64()
		if cnt == ^uint64(0) {
			t.mshr.insert(k, true) // prefetch in flight: present, no waiters
			continue
		}
		if cnt > 1<<20 {
			r.Fail(fmt.Errorf("%w: MSHR waiter count %d", ckpt.ErrCorrupt, cnt))
			return
		}
		e := t.mshr.insert(k, false)
		for j := uint64(0); j < cnt; j++ {
			e.addWaiter(r.U64())
		}
		if r.Err() != nil {
			return
		}
	}

	for i := range t.missQ {
		loadPacketRing(r, &t.missQ[i])
	}
	t.queued = r.Int()
	t.rrMC = r.Int()
	t.prefetches = r.U64()
	t.lat.RestoreState(r)

	gen := t.core.Generator()
	if res, ok := gen.(ckpt.Restorer); ok {
		res.RestoreState(r)
	} else {
		r.Fail(fmt.Errorf("%w: generator %q cannot be restored", ckpt.ErrUnsupported, gen.Name()))
	}
}

func (sl *Slice) saveState(w *ckpt.Writer) {
	sl.cache.SaveState(w)
	sim.SaveDelayQueue(w, &sl.inbox, mem.SavePacket)
	sim.SaveDelayQueue(w, &sl.out, saveOutMsg)
	w.U64(sl.Hits)
	w.U64(sl.Misses)
	for c := range sl.WBByClass {
		w.U64(sl.WBByClass[c])
	}
}

func (sl *Slice) restoreState(r *ckpt.Reader) {
	sl.cache.RestoreState(r)
	sim.LoadDelayQueue(r, &sl.inbox, mem.LoadPacket)
	sim.LoadDelayQueue(r, &sl.out, loadOutMsg)
	sl.Hits = r.U64()
	sl.Misses = r.U64()
	for c := range sl.WBByClass {
		sl.WBByClass[c] = r.U64()
	}
}

func saveOutMsg(w *ckpt.Writer, m outMsg) {
	mem.SavePacket(w, m.pkt)
	w.Int(m.dst)
	w.Bool(m.data)
}

func loadOutMsg(r *ckpt.Reader) outMsg {
	var m outMsg
	m.pkt = mem.LoadPacket(r)
	m.dst = r.Int()
	m.data = r.Bool()
	return m
}

func (d *frontDoor) saveState(w *ckpt.Writer) {
	sim.SaveDelayQueue(w, &d.inbox, mem.SavePacket)
	for c := range d.reads {
		savePacketRing(w, &d.reads[c])
	}
	w.Int(d.readCount)
	w.Int(d.rrNext)
	savePacketRing(w, &d.writes)
}

func (d *frontDoor) restoreState(r *ckpt.Reader) {
	sim.LoadDelayQueue(r, &d.inbox, mem.LoadPacket)
	d.waiting = 0
	for c := range d.reads {
		loadPacketRing(r, &d.reads[c])
		if d.reads[c].Len() > 0 {
			d.waiting |= 1 << c
		}
	}
	d.readCount = r.Int()
	d.rrNext = r.Int()
	loadPacketRing(r, &d.writes)
}

// savePacketRing walks a packet ring front-to-back in the list format of
// mem.SavePacketList (a ring is never nil, so the count is always
// explicit).
func savePacketRing(w *ckpt.Writer, q *sim.Ring[*mem.Packet]) {
	w.U64(uint64(q.Len()))
	for i := 0; i < q.Len(); i++ {
		mem.SavePacket(w, q.At(i))
	}
}

// loadPacketRing refills a ring from the list format, accepting the
// legacy nil marker as empty.
func loadPacketRing(r *ckpt.Reader, q *sim.Ring[*mem.Packet]) {
	q.Clear()
	n := r.U64()
	if n == ^uint64(0) {
		return
	}
	if n > 1<<24 {
		r.Fail(fmt.Errorf("%w: packet queue length %d", ckpt.ErrCorrupt, n))
		return
	}
	for i := uint64(0); i < n; i++ {
		q.PushBack(mem.LoadPacket(r))
		if r.Err() != nil {
			return
		}
	}
}
