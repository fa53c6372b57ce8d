package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// refCache is the array-of-structs cache the packed one replaced: the old
// line struct with its 64-bit LRU timestamp and the old scans, frozen
// verbatim. It is a test-only oracle, like dram.RefController.
type refLine struct {
	tag   uint64
	class mem.ClassID
	valid bool
	dirty bool
	used  uint64
}

type refCache struct {
	cfg     Config
	numSets int
	lines   []refLine
	clock   uint64

	partitioned bool
	partStart   [mem.MaxClasses]int
	partWays    [mem.MaxClasses]int

	Hits, Misses, Evictions, DirtyEvictions uint64
}

func newRefCache(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.Ways * mem.LineSize)
	return &refCache{cfg: cfg, numSets: numSets, lines: make([]refLine, numSets*cfg.Ways)}
}

func (c *refCache) Partition(class mem.ClassID, start, n int) {
	c.partitioned = true
	c.partStart[class] = start
	c.partWays[class] = n
}

func (c *refCache) setFor(addr mem.Addr) int {
	return int(addr.LineID() % uint64(c.numSets))
}

func (c *refCache) Access(addr mem.Addr, write bool, class mem.ClassID) Result {
	c.clock++
	set := c.setFor(addr)
	base := set * c.cfg.Ways
	tag := addr.LineID()
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	c.Misses++
	start, n := 0, c.cfg.Ways
	if c.partitioned && c.partWays[class] > 0 {
		start, n = c.partStart[class], c.partWays[class]
	}
	victimIdx := base + start
	for i := start; i < start+n; i++ {
		l := &c.lines[base+i]
		if !l.valid {
			victimIdx = base + i
			break
		}
		if l.used < c.lines[victimIdx].used {
			victimIdx = base + i
		}
	}
	v := &c.lines[victimIdx]
	res := Result{}
	if v.valid {
		c.Evictions++
		if v.dirty {
			c.DirtyEvictions++
		}
		res.Evicted = true
		res.Victim = Victim{Addr: mem.Addr(v.tag << mem.LineShift), Class: v.class, Dirty: v.dirty}
	}
	*v = refLine{tag: tag, class: class, valid: true, dirty: write, used: c.clock}
	return res
}

func (c *refCache) Writeback(addr mem.Addr, class mem.ClassID) bool {
	c.clock++
	base := c.setFor(addr) * c.cfg.Ways
	tag := addr.LineID()
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.dirty = true
			l.used = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refCache) Contains(addr mem.Addr) bool {
	base := c.setFor(addr) * c.cfg.Ways
	tag := addr.LineID()
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) OccupancyInto(dst *[mem.MaxClasses]int) {
	*dst = [mem.MaxClasses]int{}
	for i := range c.lines {
		if c.lines[i].valid {
			dst[c.lines[i].class]++
		}
	}
}

// Ckpt writes the reference's lines in the checkpoint format from their
// own fields: one byte per line, 0 for invalid and else 1 + the number of
// valid ways in its set used more recently, then the image word of each
// valid line (save only: the reference is never restored into). Equal
// bytes therefore mean the packed cache's recency ranks order every set
// as these timestamps do, and that its words are the format's, whatever
// its live layout.
func (c *refCache) Ckpt(k *ckpt.Codec) {
	n := len(c.lines)
	k.Int(&n)
	ranks := make([]byte, len(c.lines))
	var words []uint64
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		base := i - i%c.cfg.Ways
		ranks[i] = 1
		for j := base; j < base+c.cfg.Ways; j++ {
			if o := &c.lines[j]; o.valid && o.used > l.used {
				ranks[i]++
			}
		}
		words = append(words, storedWord(l.tag, l.class, l.dirty))
	}
	copy(k.AppendRaw(len(ranks)), ranks)
	for i := range words {
		k.U64(&words[i])
	}
	k.U64(&c.Hits)
	k.U64(&c.Misses)
	k.U64(&c.Evictions)
	k.U64(&c.DirtyEvictions)
}

// saved returns w's checkpoint as a complete image (header, CRC trailer).
func saved(t testing.TB, w ckpt.Walker) []byte {
	t.Helper()
	raw, err := ckpt.Encode(ckpt.Header{}, w)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// restored builds a cache of geometry cfg from a checkpoint image.
func restored(cfg Config, raw []byte) (*Cache, error) {
	k, err := ckpt.Decode(raw)
	if err != nil {
		return nil, err
	}
	c := New(cfg)
	return c, k.Load(c)
}

// diffPair drives the packed cache and the reference with one randomized
// call stream and fails on the first observable difference.
type diffPair struct {
	t    *testing.T
	rng  *rand.Rand
	got  *Cache
	want *refCache
}

// step makes one random call on both caches. Addresses come from a pool
// a few times the capacity (hits, evictions and set conflicts all occur),
// with one draw in eight moved to the top of the lineBits-wide
// line-number field, so line numbers use both the lo word and the hi
// bits. The top of the field is as far as they go: a line number is an
// address of mem.AddrBits bits, and every entry point panics on a wider
// one (TestWideLineNumberPanics).
func (p *diffPair) step(i int) {
	cfg := p.got.cfg
	id := uint64(p.rng.Intn(4 * len(p.got.lo)))
	if p.rng.Intn(8) == 0 {
		id |= (1<<lineBits - 1) &^ (1<<(lineBits-10) - 1)
	}
	addr := mem.Addr(id<<mem.LineShift) + mem.Addr(p.rng.Intn(mem.LineSize))
	class := mem.ClassID(p.rng.Intn(mem.MaxClasses))
	switch op := p.rng.Intn(100); {
	case op < 70:
		write := p.rng.Intn(3) == 0
		if g, w := p.got.Access(addr, write, class), p.want.Access(addr, write, class); g != w {
			p.t.Fatalf("call %d: Access(%#x, %v, %d) = %+v, reference %+v", i, uint64(addr), write, class, g, w)
		}
	case op < 85:
		if g, w := p.got.Writeback(addr, class), p.want.Writeback(addr, class); g != w {
			p.t.Fatalf("call %d: Writeback(%#x) = %v, reference %v", i, uint64(addr), g, w)
		}
	case op < 99:
		if g, w := p.got.Contains(addr), p.want.Contains(addr); g != w {
			p.t.Fatalf("call %d: Contains(%#x) = %v, reference %v", i, uint64(addr), g, w)
		}
	default:
		start := p.rng.Intn(cfg.Ways)
		n := p.rng.Intn(cfg.Ways - start + 1)
		p.got.Partition(class, start, n)
		p.want.Partition(class, start, n)
	}
}

// compare checks everything a caller can read off a cache.
func (p *diffPair) compare(i int) {
	g, w := p.got, p.want
	if g.Hits != w.Hits || g.Misses != w.Misses || g.Evictions != w.Evictions || g.DirtyEvictions != w.DirtyEvictions {
		p.t.Fatalf("call %d: counters %d/%d/%d/%d, reference %d/%d/%d/%d", i,
			g.Hits, g.Misses, g.Evictions, g.DirtyEvictions, w.Hits, w.Misses, w.Evictions, w.DirtyEvictions)
	}
	var occG, occW [mem.MaxClasses]int
	g.OccupancyInto(&occG)
	w.OccupancyInto(&occW)
	if occG != occW {
		p.t.Fatalf("call %d: occupancy %v, reference %v", i, occG, occW)
	}
	if !bytes.Equal(saved(p.t, g), saved(p.t, w)) {
		p.t.Fatalf("call %d: checkpoint bytes differ from the reference", i)
	}
}

// TestDifferentialAgainstReference pins the packed representation to the
// struct-per-line one it replaced: equal results, counters, occupancy and
// checkpoint bytes after every call — so recency ranks order each set as
// the timestamps do — and a cache restored from the reference's bytes
// continues exactly as the reference does.
func TestDifferentialAgainstReference(t *testing.T) {
	// Few sets: sets are independent, and every call re-encodes both
	// caches whole. 12 ways is a set width that is not a power of two.
	const callsPerGeometry = 100_000 // x3 geometries = 300k compared calls
	for gi, cfg := range []Config{
		{SizeBytes: 8 * 8 * mem.LineSize, Ways: 8},
		{SizeBytes: 4 * 16 * mem.LineSize, Ways: 16},
		{SizeBytes: 8 * 12 * mem.LineSize, Ways: 12},
	} {
		p := &diffPair{t: t, rng: rand.New(rand.NewSource(int64(gi) + 1)), got: New(cfg), want: newRefCache(cfg)}
		for i := 0; i < callsPerGeometry; i++ {
			p.step(i)
			p.compare(i)
		}
		if p.got.Hits == 0 || p.got.DirtyEvictions == 0 || p.got.Evictions == p.got.DirtyEvictions {
			t.Fatalf("%+v: the stream never hit, or never evicted both clean and dirty lines", cfg)
		}

		// Partitions are structural, not checkpointed: carry them over
		// the way the system's Finalize re-applies them.
		got, err := restored(cfg, saved(t, p.want))
		if err != nil {
			t.Fatalf("%+v: restore from reference bytes: %v", cfg, err)
		}
		got.partStart, got.partWays = p.got.partStart, p.got.partWays
		p.got = got
		for i := 0; i < 5000; i++ {
			p.step(i)
			p.compare(callsPerGeometry + i)
		}
	}
}
