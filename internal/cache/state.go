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
// for invalid and 1+rank for valid, then one image word per valid line in
// line order: valid 63 | dirty 62 | class 61–58 | line number 49–0. The
// image is input from outside the program, so a load checks what the
// live layout relies on: each set's valid ranks are a permutation of
// 0..n-1 for its n valid lines, and each stored word carries its valid
// bit and a line number below 2^lineBits, the machine's address width.
// Every other bit pattern of a word is a line.
func (c *Cache) Ckpt(k *ckpt.Codec) {
	if !k.Same(len(c.lo), "cache lines") {
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

// imageShift lifts hi's valid, dirty and class bits to their places in
// an image word (class to 61–58, so dirty and valid follow); the word's
// bits 57–37 stay clear.
const imageShift = 48

var (
	_ [58 - imageShift - classShift]struct{}
	_ [imageShift + classShift - 58]struct{}
)

func (c *Cache) imageWord(i int) uint64 {
	h := c.hi[i]
	return uint64(h&^(rankField|hiLineMask))<<imageShift | uint64(h&hiLineMask)<<loBits | uint64(c.lo[i])
}

// valid returns the number of valid lines.
func (c *Cache) valid() int {
	n := 0
	for _, o := range c.occ {
		n += int(o)
	}
	return n
}

// CkptSize is the exact size of the cache's image, known from its line
// counts before the walk (ckpt.Sizer).
func (c *Cache) CkptSize() int { return 8 + len(c.lo) + 8*c.valid() + 4*8 }

func (c *Cache) save(k *ckpt.Codec) {
	b := k.AppendRaw(len(c.hi) + 8*c.valid())
	ranks, words := b[:len(c.hi)], b[len(c.hi):]
	for i, h := range c.hi {
		if h&validBit != 0 {
			ranks[i] = byte(1 + rankOf(h))
			binary.LittleEndian.PutUint64(words, c.imageWord(i))
			words = words[8:]
		}
	}
}

func (c *Cache) load(k *ckpt.Codec) {
	ranks := k.TakeRaw(len(c.hi))
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
	for base := 0; base < len(c.hi); base += ways {
		set := ranks[base : base+ways]
		valid := 0
		for _, r := range set {
			if r != 0 {
				valid++
			}
		}
		var seen uint32 // one bit per rank, and MaxWays < 32
		for j, r := range set {
			i := base + j
			if r == 0 {
				c.lo[i], c.hi[i] = 0, 0
				continue
			}
			r--
			w := binary.LittleEndian.Uint64(words)
			words = words[8:]
			if int(r) >= valid || seen>>r&1 != 0 {
				k.Fail(fmt.Errorf("%w: cache line %d: rank %d out of range or repeated among its set's %d valid ways",
					ckpt.ErrCorrupt, i, r, valid))
				return
			}
			h := uint16(w >> imageShift)
			if h&validBit == 0 || w&(1<<(classShift+imageShift)-1) > lineMask {
				k.Fail(fmt.Errorf("%w: cache line %d: word %#x without the valid bit or with a line number beyond %d bits",
					ckpt.ErrCorrupt, i, w, lineBits))
				return
			}
			seen |= 1 << r
			c.lo[i] = uint32(w)
			c.hi[i] = h | uint16(w>>loBits) | uint16(r)<<rankShift
			c.occ[classOf(h)]++
		}
	}
}
