package dram

import "pabst/internal/mem"

// This file holds the controller's incrementally-maintained scheduling
// index. It replaces the per-cycle O(n) scans over the front-end
// queues (the read pick and the write pick) with per-bank structures
// that answer "best candidate in this bank" in O(1) and are updated in
// O(log n) on arrival and service:
//
//   - every front-end read lives in exactly one bank bucket, inside a
//     4-ary min-heap keyed by the scheduling order (EDF: virtual
//     deadline, then arrival; FR-FCFS: arrival);
//   - open-page banks additionally maintain a second heap holding only
//     the requests that hit the currently open row, rebuilt (O(bank
//     population)) on the rare event the open row changes — which can
//     only happen when the bank itself is served;
//   - the per-cycle pick then compares at most one candidate per bank
//     (row hits first, then the heap order), an O(banks) loop instead of
//     an O(queue-depth) scan;
//   - an occupied-bank bitmap (bit b set iff bank b's all-heap is
//     non-empty) lets that loop visit only banks holding a read, so a
//     tick over a nearly empty front end does not walk every bank's
//     structs to learn they are empty.
//
// The pick order is bit-identical to the old scans. The bitmap is walked
// in ascending bank order and an empty bank never offered a candidate,
// so the candidates and the order they are compared in are the scans'.
// The scans broke ties by queue position; because a packet's front-end
// Enq stamp is non-decreasing in arrival order, (Deadline, Enq,
// position) collapses to (Deadline, arrival sequence) and (Enq,
// position) collapses to (arrival sequence), which is exactly the heap
// key. The differential test in differential_test.go replays randomized
// workloads against a reference implementation of the old scans to pin
// this equivalence.

// schedNode is one front-end read in the index. dl and seq mirror
// immutable packet fields: the arbiter stamps Deadline in OnAccept,
// before insertion, and never rewrites it.
type schedNode struct {
	pkt    *mem.Packet
	dl     uint64 // pkt.Deadline at arrival
	seq    uint64 // global arrival sequence number
	row    int64  // pkt's DRAM row, for row-hit tracking
	bank   int32
	posAll int32 // index in its bank's all-heap
	posHit int32 // index in its bank's hit-heap, -1 when absent
	next   int32 // free-list link while the node is idle
}

// nheap is a 4-ary min-heap of node ids. pos selects which position
// field of schedNode this heap maintains (0 = posAll, 1 = posHit), so
// a node can sit in both of its bank's heaps at once and either can
// remove it in O(log n) without searching.
type nheap struct {
	pos   uint8
	items []int32
}

// bankIdx is one bank's bucket of front-end reads.
type bankIdx struct {
	all nheap // every read mapped to this bank
	hit nheap // the subset hitting the open row (open-page only)
}

// frontSched is the controller's front-end read index.
type frontSched struct {
	nodes    []schedNode
	freeHead int32
	banks    []bankIdx
	occupied []uint64 // bit b: banks[b].all is non-empty
	count    int      // total reads in the front end
	seq      uint64   // next arrival sequence number
	edf      bool     // heap order includes the virtual deadline
	useHit   bool     // maintain per-bank open-row heaps
}

func newFrontSched(banks, capReads int, useHit bool) *frontSched {
	f := &frontSched{
		nodes:    make([]schedNode, 0, capReads),
		freeHead: -1,
		banks:    make([]bankIdx, banks),
		occupied: make([]uint64, (banks+63)/64),
		useHit:   useHit,
	}
	for b := range f.banks {
		f.banks[b].all = nheap{pos: 0, items: make([]int32, 0, capReads)}
		if useHit {
			f.banks[b].hit = nheap{pos: 1, items: make([]int32, 0, capReads)}
		}
	}
	return f
}

// less is the scheduling order: earliest virtual deadline first under
// EDF, then arrival; pure arrival order under FR-FCFS. seq is unique,
// so the order is strict and every pick is fully determined.
func (f *frontSched) less(a, b int32) bool {
	na, nb := &f.nodes[a], &f.nodes[b]
	if f.edf && na.dl != nb.dl {
		return na.dl < nb.dl
	}
	return na.seq < nb.seq
}

func (f *frontSched) alloc() int32 {
	if f.freeHead >= 0 {
		id := f.freeHead
		f.freeHead = f.nodes[id].next
		return id
	}
	f.nodes = append(f.nodes, schedNode{})
	return int32(len(f.nodes) - 1)
}

func (f *frontSched) release(id int32) {
	f.nodes[id] = schedNode{pkt: nil, next: f.freeHead}
	f.freeHead = id
}

// insert adds a read to its bank bucket. openRow is the bank's current
// open row, for hit-heap membership.
func (f *frontSched) insert(pkt *mem.Packet, bank int32, row, openRow int64) {
	id := f.alloc()
	f.nodes[id] = schedNode{
		pkt: pkt, dl: pkt.Deadline, seq: f.seq, row: row, bank: bank,
		posAll: -1, posHit: -1, next: -1,
	}
	f.seq++
	f.count++
	bi := &f.banks[bank]
	bi.all.push(f, id)
	f.occupied[bank>>6] |= 1 << (bank & 63)
	if f.useHit && row == openRow {
		bi.hit.push(f, id)
	}
}

// remove takes a node out of the index (it has been served) and
// returns its packet.
func (f *frontSched) remove(id int32) *mem.Packet {
	n := &f.nodes[id]
	pkt := n.pkt
	bi := &f.banks[n.bank]
	bi.all.remove(f, id)
	if len(bi.all.items) == 0 {
		f.occupied[n.bank>>6] &^= 1 << (n.bank & 63)
	}
	if n.posHit >= 0 {
		bi.hit.remove(f, id)
	}
	f.count--
	f.release(id)
	return pkt
}

// rebuildHit recomputes a bank's open-row heap after its open row
// changed. Only the served bank's row ever changes, so this O(bank
// population) pass runs at most once per issued access.
func (f *frontSched) rebuildHit(bank int32, openRow int64) {
	bi := &f.banks[bank]
	for _, id := range bi.hit.items {
		f.nodes[id].posHit = -1
	}
	bi.hit.items = bi.hit.items[:0]
	for _, id := range bi.all.items {
		if f.nodes[id].row == openRow {
			bi.hit.push(f, id)
		}
	}
}

// ---- 4-ary heap mechanics -------------------------------------------

func (h *nheap) top() int32 {
	if len(h.items) == 0 {
		return -1
	}
	return h.items[0]
}

func (h *nheap) setPos(f *frontSched, id int32, i int32) {
	if h.pos == 0 {
		f.nodes[id].posAll = i
	} else {
		f.nodes[id].posHit = i
	}
}

func (h *nheap) getPos(f *frontSched, id int32) int32 {
	if h.pos == 0 {
		return f.nodes[id].posAll
	}
	return f.nodes[id].posHit
}

func (h *nheap) push(f *frontSched, id int32) {
	h.items = append(h.items, id)
	h.setPos(f, id, int32(len(h.items)-1))
	h.up(f, len(h.items)-1)
}

// remove deletes id from the heap by position in O(log n).
func (h *nheap) remove(f *frontSched, id int32) {
	i := int(h.getPos(f, id))
	h.setPos(f, id, -1)
	last := len(h.items) - 1
	if i != last {
		moved := h.items[last]
		h.items[i] = moved
		h.setPos(f, moved, int32(i))
	}
	h.items = h.items[:last]
	if i != last {
		// The hole filler may need to move either way.
		if !h.up(f, i) {
			h.down(f, i)
		}
	}
}

// up sifts the element at i toward the root; reports whether it moved.
func (h *nheap) up(f *frontSched, i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 4
		if !f.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		h.setPos(f, h.items[i], int32(i))
		h.setPos(f, h.items[parent], int32(parent))
		i = parent
		moved = true
	}
	return moved
}

func (h *nheap) down(f *frontSched, i int) {
	n := len(h.items)
	for {
		smallest := i
		first := 4*i + 1
		for c := first; c < first+4 && c < n; c++ {
			if f.less(h.items[c], h.items[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		h.setPos(f, h.items[i], int32(i))
		h.setPos(f, h.items[smallest], int32(smallest))
		i = smallest
	}
}
