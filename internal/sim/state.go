package sim

import (
	"fmt"
	"sort"

	"pabst/internal/ckpt"
)

// Ckpt implements ckpt.Walker: the raw xorshift state. A zero state
// would wedge the generator, so a loaded zero is remapped as Seed does.
func (r *RNG) Ckpt(c *ckpt.Codec) {
	c.U64(&r.state)
	if r.state == 0 {
		r.state = 1
	}
}

// Ckpt implements ckpt.Walker for the kernel's clock state. Components
// and hooks are structural (rebuilt by the system's Finalize) and are not
// saved; hooks fire whenever (now-phase)%period == 0, and Run re-arms
// each hook's next fire cycle and re-keys every component from the
// clock, so a restored now needs no further call. The scheduler's own
// counters (Skipped, LateWakes, EventClassStats) describe how a run was
// scheduled, not the machine, and are not saved either: the reference
// loop and the event kernel write the same bytes for the same machine at
// the same cycle.
func (k *Kernel) Ckpt(c *ckpt.Codec) {
	c.U64(&k.now)
}

// CkptDelayQueue walks a delay queue: the sequence counter plus the raw
// heap array in storage order. Same-cycle ties break by insertion
// sequence, so reproducing the array verbatim reproduces every future pop
// exactly. A loaded array must be what a queue can hold — a heap in
// (readyAt, seq) order, each seq distinct and below the counter — or an
// item due early could sit behind the root, never to pop; anything else
// is ErrCorrupt. item walks one queued item, which encodes to at least
// itemMin bytes.
func CkptDelayQueue[T any](c *ckpt.Codec, q *DelayQueue[T], itemMin int, item func(*ckpt.Codec, *T)) {
	c.U64(&q.seq)
	ckpt.Slice(c, &q.entries, 16+itemMin, func(c *ckpt.Codec, e *delayEntry[T]) {
		c.U64(&e.readyAt)
		c.U64(&e.seq)
		item(c, &e.item)
	})
	if !c.Loading() || c.Err() != nil {
		return
	}
	seen := make(map[uint64]bool, len(q.entries))
	for i := range q.entries {
		e := &q.entries[i]
		if e.seq >= q.seq || seen[e.seq] || i > 0 && q.less(i, (i-1)/2) {
			c.Fail(fmt.Errorf("%w: delay queue entry %d (ready %d, sequence %d of %d) repeated or out of order",
				ckpt.ErrCorrupt, i, e.readyAt, e.seq, q.seq))
			return
		}
		seen[e.seq] = true
	}
}

// CkptRing walks a ring front to back as a count-prefixed list; loading
// replaces the contents. The nil-list marker a ring's slice predecessor
// could write loads as empty.
func CkptRing[T any](c *ckpt.Codec, r *Ring[T], itemMin int, item func(*ckpt.Codec, *T)) {
	n := r.n
	c.NilLen(&n, itemMin)
	if c.Loading() {
		r.Clear()
		r.Grow(n)
		r.n = max(n, 0)
	}
	for i := 0; i < r.n; i++ {
		item(c, &r.buf[(r.head+i)%len(r.buf)])
	}
}

// Ckpt implements ckpt.Walker. The stored form is the entries in
// ascending key order (table iteration follows hash placement;
// checkpoints must not), rebuilt into a fresh table on load.
func (m *U64Map) Ckpt(c *ckpt.Codec) {
	type kv struct{ k, v uint64 }
	var stored []kv
	if !c.Loading() {
		stored = make([]kv, 0, m.n)
		m.Range(func(k, v uint64) { stored = append(stored, kv{k, v}) })
		sort.Slice(stored, func(i, j int) bool { return stored[i].k < stored[j].k })
	}
	ckpt.Slice(c, &stored, 16, func(c *ckpt.Codec, e *kv) {
		c.U64(&e.k)
		c.U64(&e.v)
	})
	if c.Loading() {
		*m = U64Map{}
		m.Grow(len(stored))
		for _, e := range stored {
			m.Put(e.k, e.v)
		}
	}
}
