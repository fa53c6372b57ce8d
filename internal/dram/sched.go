package dram

import "pabst/internal/mem"

// This file holds the controller's incrementally-maintained scheduling
// index. It replaces the per-cycle O(n) scans over the front-end
// queues (the read pick and the write pick) with per-bank structures
// that answer "best candidate in this bank" in O(1) and are updated in
// O(log n) on arrival and service:
//
//   - every front-end read lives in exactly one bank bucket, a 4-ary
//     min-heap keyed by the scheduling order (EDF: virtual deadline,
//     then arrival; FR-FCFS: arrival);
//   - the per-cycle pick then compares at most one candidate per bank
//     (row hits first, then the heap order), an O(banks) loop instead of
//     an O(queue-depth) scan;
//   - an occupied-bank bitmap (bit b set iff bank b's heap is non-empty)
//     lets that loop visit only banks holding a read, so a tick over a
//     nearly empty front end does not walk every bank's structs to learn
//     they are empty.
//
// The closed-page controller every workload machine runs has no open
// row, so its candidate is the heap top. An open-page bank's candidate
// is its best read on the open row, found by scanning that bank's heap
// (openRowMin); only the page ablation axis selects open page, so the
// scan keeps no index of its own.
//
// The pick order is bit-identical to the old scans. The bitmap is walked
// in ascending bank order and an empty bank never offered a candidate,
// so the candidates and the order they are compared in are the scans'.
// The scans broke ties by queue position; because a packet's front-end
// Enq stamp is non-decreasing in arrival order, (Deadline, Enq,
// position) collapses to (Deadline, arrival sequence) and (Enq,
// position) collapses to (arrival sequence), which is exactly the heap
// key. The differential test in differential_test.go replays randomized
// workloads against a reference implementation of the old scans, on
// both page policies, to pin this equivalence.

// schedNode is one front-end read in the index. dl and seq mirror
// immutable packet fields: the arbiter stamps Deadline in OnAccept,
// before insertion, and never rewrites it.
type schedNode struct {
	pkt  *mem.Packet
	dl   uint64 // pkt.Deadline at arrival
	seq  uint64 // global arrival sequence number
	row  int64  // pkt's DRAM row, for the open-page row-hit pick
	bank int32
	pos  int32 // index in its bank's heap
	next int32 // free-list link while the node is idle
}

// nheap is a 4-ary min-heap of node ids; each node records its index
// in schedNode.pos, so removal is O(log n) without searching.
type nheap struct {
	items []int32
}

// frontSched is the controller's front-end read index.
type frontSched struct {
	nodes    []schedNode
	freeHead int32
	banks    []nheap  // every read, bucketed by bank
	occupied []uint64 // bit b: banks[b] is non-empty
	count    int      // total reads in the front end
	seq      uint64   // next arrival sequence number
	edf      bool     // heap order includes the virtual deadline
}

func newFrontSched(banks, capReads int) *frontSched {
	f := &frontSched{
		nodes:    make([]schedNode, 0, capReads),
		freeHead: -1,
		banks:    make([]nheap, banks),
		occupied: make([]uint64, (banks+63)/64),
	}
	for b := range f.banks {
		f.banks[b].items = make([]int32, 0, capReads)
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

// insert adds a read to its bank bucket.
func (f *frontSched) insert(pkt *mem.Packet, bank int32, row int64) {
	id := f.alloc()
	f.nodes[id] = schedNode{
		pkt: pkt, dl: pkt.Deadline, seq: f.seq, row: row, bank: bank,
		pos: -1, next: -1,
	}
	f.seq++
	f.count++
	f.banks[bank].push(f, id)
	f.occupied[bank>>6] |= 1 << (bank & 63)
}

// remove takes a node out of the index (it has been served) and
// returns its packet.
func (f *frontSched) remove(id int32) *mem.Packet {
	n := &f.nodes[id]
	pkt := n.pkt
	h := &f.banks[n.bank]
	h.remove(f, id)
	if len(h.items) == 0 {
		f.occupied[n.bank>>6] &^= 1 << (n.bank & 63)
	}
	f.count--
	f.release(id)
	return pkt
}

// openRowMin returns the first read in the scheduling order among those
// of bank on openRow, or -1 when none is (a closed bank's openRow is -1,
// which no read carries).
func (f *frontSched) openRowMin(bank int, openRow int64) int32 {
	best := int32(-1)
	for _, id := range f.banks[bank].items {
		if f.nodes[id].row == openRow && (best < 0 || f.less(id, best)) {
			best = id
		}
	}
	return best
}

// ---- 4-ary heap mechanics -------------------------------------------

func (h *nheap) push(f *frontSched, id int32) {
	h.items = append(h.items, id)
	f.nodes[id].pos = int32(len(h.items) - 1)
	h.up(f, len(h.items)-1)
}

// remove deletes id from the heap by position in O(log n).
func (h *nheap) remove(f *frontSched, id int32) {
	i := int(f.nodes[id].pos)
	f.nodes[id].pos = -1
	last := len(h.items) - 1
	if i != last {
		moved := h.items[last]
		h.items[i] = moved
		f.nodes[moved].pos = int32(i)
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
		f.nodes[h.items[i]].pos = int32(i)
		f.nodes[h.items[parent]].pos = int32(parent)
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
		f.nodes[h.items[i]].pos = int32(i)
		f.nodes[h.items[smallest]].pos = int32(smallest)
		i = smallest
	}
}
