package stats

import "pabst/internal/ckpt"

// Ckpt implements ckpt.Walker: names in first-touch order with their
// values, so a restored Counters reads identically. Loading replaces
// the current contents.
func (c *Counters) Ckpt(k *ckpt.Codec) {
	if k.Loading() {
		c.values = make(map[string]uint64)
	}
	ckpt.Slice(k, &c.names, 16, func(k *ckpt.Codec, name *string) {
		k.String(name)
		v := c.values[*name]
		k.U64(&v)
		if k.Loading() {
			c.values[*name] = v
		}
	})
}

// Ckpt implements ckpt.Walker: the samples (nil-vs-empty preserved) and
// the diff baseline. The window is structural.
func (s *Series) Ckpt(k *ckpt.Codec) {
	ckpt.NilSlice(k, &s.Samples, 8+8*len(s.last), func(k *ckpt.Codec, smp *Sample) {
		k.U64(&smp.Cycle)
		k.U64s(smp.Bytes[:])
	})
	k.U64s(s.last[:])
}

// Ckpt implements ckpt.Walker. The buckets are overwhelmingly sparse,
// so the stored form is the non-zero buckets as (index, count) pairs in
// ascending index order. Loading replaces the current contents; the
// pairs land in a stack array first, so a loaded Hist allocates its
// buckets once, sized to the highest stored one.
func (h *Hist) Ckpt(k *ckpt.Codec) {
	var loaded [histBuckets]uint64
	buckets := h.buckets
	nz := 0
	if k.Loading() {
		*h = Hist{}
		buckets = loaded[:]
	} else {
		for _, n := range buckets {
			if n != 0 {
				nz++
			}
		}
	}
	k.Len(&nz, 16)
	b := -1
	for i := 0; i < nz; i++ {
		if !k.Loading() {
			for b++; buckets[b] == 0; b++ {
			}
		}
		k.Index(&b, histBuckets)
		k.U64(&buckets[b])
	}
	if k.Loading() {
		for top := len(loaded) - 1; top >= 0; top-- {
			if loaded[top] != 0 {
				h.grow(top + 1)
				copy(h.buckets, loaded[:])
				break
			}
		}
	}
	k.U64(&h.count)
	k.U64(&h.sum)
	k.U64(&h.min)
	k.U64(&h.max)
}
