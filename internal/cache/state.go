package cache

import (
	"encoding/binary"
	"fmt"

	"pabst/internal/ckpt"
)

// Ckpt implements ckpt.Walker: every line and the four stat counters.
// Partitions are structural (re-applied from the config by the system's
// Finalize) and are not saved, and the occupancy counters are recounted
// from the lines.
//
// The lines are stored in one pass per direction: one byte per line, 0
// for invalid and 1+rank for valid, then the packed word of each valid
// line in line order with its rank field cleared. The image is input
// from outside the program, so a load checks what the live layout relies
// on: each set's valid ranks are a permutation of 0..n-1 for its n valid
// lines, and each stored word carries its valid bit and no bit in the
// rank field, which would be a line number beyond the machine's address
// width. Every other bit pattern of a word is a line.
func (c *Cache) Ckpt(k *ckpt.Codec) {
	if !k.Same(len(c.tags), "cache lines") {
		return
	}
	if k.Loading() {
		c.load(k)
	} else {
		c.save(k)
	}
	k.U64(&c.Hits)
	k.U64(&c.Misses)
	k.U64(&c.Evictions)
	k.U64(&c.DirtyEvictions)
}

// valid returns the number of valid lines.
func (c *Cache) valid() int {
	n := 0
	for _, o := range c.occ {
		n += o
	}
	return n
}

// CkptSize is the exact size of the cache's image, known from its line
// counts before the walk (ckpt.Sizer).
func (c *Cache) CkptSize() int { return 8 + len(c.tags) + 8*c.valid() + 4*8 }

func (c *Cache) save(k *ckpt.Codec) {
	b := k.AppendRaw(len(c.tags) + 8*c.valid())
	ranks, words := b[:len(c.tags)], b[len(c.tags):]
	for i, w := range c.tags {
		if w&validBit != 0 {
			ranks[i] = byte(1 + rankOf(w))
			binary.LittleEndian.PutUint64(words, w&^rankField)
			words = words[8:]
		}
	}
}

func (c *Cache) load(k *ckpt.Codec) {
	ranks := k.TakeRaw(len(c.tags))
	n := 0
	for _, r := range ranks {
		if r != 0 {
			n++
		}
	}
	words := k.TakeRaw(8 * n) // more valid lines claimed than stored fails here
	if k.Err() != nil {
		return
	}
	clear(c.occ[:])
	ways := c.cfg.Ways
	for base := 0; base < len(c.tags); base += ways {
		set := ranks[base : base+ways]
		valid := 0
		for _, r := range set {
			if r != 0 {
				valid++
			}
		}
		var seen [(MaxWays + 63) / 64]uint64
		for j, r := range set {
			i := base + j
			if r == 0 {
				c.tags[i] = 0
				continue
			}
			r--
			w := binary.LittleEndian.Uint64(words)
			words = words[8:]
			bit := uint64(1) << (r % 64)
			if int(r) >= valid || seen[r/64]&bit != 0 {
				k.Fail(fmt.Errorf("%w: cache line %d: rank %d out of range or repeated among its set's %d valid ways",
					ckpt.ErrCorrupt, i, r, valid))
				return
			}
			if w&validBit == 0 || w&rankField != 0 {
				k.Fail(fmt.Errorf("%w: cache line %d: word %#x without the valid bit or beyond the line number field",
					ckpt.ErrCorrupt, i, w))
				return
			}
			seen[r/64] |= bit
			c.tags[i] = w | uint64(r)<<rankShift
			c.occ[classOf(w)]++
		}
	}
}
