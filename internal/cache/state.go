package cache

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// SaveState implements ckpt.Saver: every line plus the LRU clock and the
// four stat counters. Partitions are structural (re-applied from the
// config by the system's Finalize) and are not saved.
func (c *Cache) SaveState(w *ckpt.Writer) {
	w.Int(len(c.tags))
	for i, t := range c.tags {
		w.Bool(t&validBit != 0)
		if t&validBit == 0 {
			continue
		}
		w.U64(t & lineMask)
		w.U8(uint8(classOf(t)))
		w.Bool(t&dirtyBit != 0)
		w.U64(c.used[i])
	}
	w.U64(c.clock)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	w.U64(c.DirtyEvictions)
}

// RestoreState implements ckpt.Restorer onto a cache with identical
// geometry. The stream is input from outside the program: a line number
// or class that does not fit its field of the packed word is reported as
// corruption, never masked into it.
func (c *Cache) RestoreState(r *ckpt.Reader) {
	if n := r.Int(); n != len(c.tags) {
		r.Fail(fmt.Errorf("%w: cache has %d lines, checkpoint has %d", ckpt.ErrMismatch, len(c.tags), n))
		return
	}
	for i := range c.tags {
		if !r.Bool() {
			c.tags[i], c.used[i] = 0, 0
			continue
		}
		id, class, dirty := r.U64(), r.U8(), r.Bool()
		if id > lineMask || class >= mem.MaxClasses {
			r.Fail(fmt.Errorf("%w: cache line %d has line number %#x, class %d", ckpt.ErrCorrupt, i, id, class))
			return
		}
		c.tags[i] = pack(id, mem.ClassID(class), dirty)
		c.used[i] = r.U64()
	}
	c.clock = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	c.DirtyEvictions = r.U64()
}
