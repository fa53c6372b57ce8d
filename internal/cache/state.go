package cache

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// Ckpt implements ckpt.Walker: every line plus the LRU clock and the
// four stat counters. Partitions are structural (re-applied from the
// config by the system's Finalize) and are not saved.
//
// A stored line is (valid, line number, class, dirty, last use), the
// fields of the packed word spelled out; an invalid line stores only its
// valid byte. The image is input from outside the program: a line number
// or class that does not fit its field of the packed word is reported as
// corruption, never masked into it.
func (c *Cache) Ckpt(k *ckpt.Codec) {
	if !k.Same(len(c.tags), "cache lines") {
		return
	}
	for i, t := range c.tags {
		valid := t&validBit != 0
		k.Bool(&valid)
		if !valid {
			if k.Loading() {
				c.tags[i], c.used[i] = 0, 0
			}
			continue
		}
		id, class, dirty := t&lineMask, uint8(classOf(t)), t&dirtyBit != 0
		k.U64(&id)
		k.U8(&class)
		k.Bool(&dirty)
		k.U64(&c.used[i])
		if k.Loading() {
			if id > lineMask || class >= mem.MaxClasses {
				k.Fail(fmt.Errorf("%w: cache line %d has line number %#x, class %d", ckpt.ErrCorrupt, i, id, class))
				return
			}
			c.tags[i] = pack(id, mem.ClassID(class), dirty)
		}
	}
	k.U64(&c.clock)
	k.U64(&c.Hits)
	k.U64(&c.Misses)
	k.U64(&c.Evictions)
	k.U64(&c.DirtyEvictions)
}
