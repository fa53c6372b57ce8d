package cache

import (
	"fmt"

	"pabst/internal/mem"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Ways*mem.LineSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// IndexShift drops this many low line-number bits before set indexing.
	// Sliced caches set it to log2(slices) so that the bits consumed by
	// slice selection do not alias every line of a slice into a fraction
	// of its sets.
	IndexShift uint
}

// A line is one packed word: valid | dirty | class | line number, high
// to low. A byte address is 64 bits and a line 2^LineShift bytes, so the
// line number needs exactly lineBits and never truncates; the class
// field holds any ClassID below mem.MaxClasses. The hit scan compares a
// word under matchMask against validBit|lineID and so reads nothing but
// the set's tags (one host cache line for an 8-way set). An invalid line
// is the zero word.
const (
	lineBits   = 64 - mem.LineShift
	classBits  = 4
	classShift = lineBits
	lineMask   = uint64(1)<<lineBits - 1
	classMask  = uint64(1)<<classBits - 1
	dirtyBit   = uint64(1) << 62
	validBit   = uint64(1) << 63
	matchMask  = validBit | lineMask
)

// The fields must not overlap and every class must fit its field.
var (
	_ [62 - lineBits - classBits]struct{}
	_ [1<<classBits - mem.MaxClasses]struct{}
)

func pack(lineID uint64, class mem.ClassID, dirty bool) uint64 {
	w := validBit | uint64(class)<<classShift | lineID
	if dirty {
		w |= dirtyBit
	}
	return w
}

func classOf(w uint64) mem.ClassID { return mem.ClassID(w >> classShift & classMask) }

// Victim describes a line displaced by an allocation.
type Victim struct {
	Addr  mem.Addr
	Class mem.ClassID
	Dirty bool
}

// Result reports the outcome of an access.
type Result struct {
	Hit     bool
	Evicted bool
	Victim  Victim
}

// Cache is a single set-associative array. It is not safe for concurrent
// use.
type Cache struct {
	cfg     Config
	numSets int
	tags    []uint64 // numSets * ways packed lines, set-major
	used    []uint64 // LRU timestamps, parallel to tags
	clock   uint64

	// partWays[class] == 0 means the class is unrestricted.
	partStart [mem.MaxClasses]int
	partWays  [mem.MaxClasses]int

	// Stats
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New builds a cache. It panics on invalid geometry, which is a
// configuration error caught during system construction.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	setBytes := cfg.Ways * mem.LineSize
	if cfg.SizeBytes%setBytes != 0 {
		panic(fmt.Sprintf("cache: size %d not a multiple of way set size %d", cfg.SizeBytes, setBytes))
	}
	numSets := cfg.SizeBytes / setBytes
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	return &Cache{
		cfg:     cfg,
		numSets: numSets,
		tags:    make([]uint64, numSets*cfg.Ways),
		used:    make([]uint64, numSets*cfg.Ways),
	}
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Partition restricts allocations by class to ways [start, start+n).
// Lookups still search every way, so repartitioning never loses data; it
// only changes where future victims are chosen. Passing n == 0 removes the
// class's restriction.
func (c *Cache) Partition(class mem.ClassID, start, n int) {
	if n < 0 || start < 0 || start+n > c.cfg.Ways {
		panic(fmt.Sprintf("cache: partition [%d,%d) outside %d ways", start, start+n, c.cfg.Ways))
	}
	c.partStart[class] = start
	c.partWays[class] = n
}

// setBase returns the index of the first way of lineID's set. numSets is
// a power of two, so the set index is a mask.
func (c *Cache) setBase(lineID uint64) int {
	return int(lineID>>c.cfg.IndexShift&uint64(c.numSets-1)) * c.cfg.Ways
}

// find returns the index of addr's line in tags, or -1.
func (c *Cache) find(addr mem.Addr) int {
	id := addr.LineID()
	base := c.setBase(id)
	for i, w := range c.tags[base : base+c.cfg.Ways] {
		if w&matchMask == validBit|id {
			return base + i
		}
	}
	return -1
}

// Access performs a demand load (write=false) or store (write=true) by
// class. On a miss the line is allocated in the class's partition and the
// displaced victim, if any, is reported.
func (c *Cache) Access(addr mem.Addr, write bool, class mem.ClassID) Result {
	c.clock++
	if i := c.find(addr); i >= 0 {
		c.used[i] = c.clock
		if write {
			c.tags[i] |= dirtyBit
		}
		c.Hits++
		return Result{Hit: true}
	}
	c.Misses++

	// Victim selection within the class's allowed ways: the first
	// invalid way, else the least recently used.
	id := addr.LineID()
	start, n := 0, c.cfg.Ways
	if pw := c.partWays[class]; pw > 0 {
		start, n = c.partStart[class], pw
	}
	first := c.setBase(id) + start
	v := first
	for i := first; i < first+n; i++ {
		if c.tags[i]&validBit == 0 {
			v = i
			break
		}
		if c.used[i] < c.used[v] {
			v = i
		}
	}
	res := Result{}
	if w := c.tags[v]; w&validBit != 0 {
		c.Evictions++
		dirty := w&dirtyBit != 0
		if dirty {
			c.DirtyEvictions++
		}
		res = Result{Evicted: true, Victim: Victim{
			Addr:  mem.Addr(w & lineMask << mem.LineShift),
			Class: classOf(w),
			Dirty: dirty,
		}}
	}
	c.tags[v] = pack(id, class, write)
	c.used[v] = c.clock
	return res
}

// Writeback merges an evicted dirty line from a lower-level cache: if the
// line is resident it is dirtied in place (and counted as a hit) and true
// is returned; otherwise false is returned and nothing is allocated
// (write-no-allocate), leaving the caller to forward the data to memory.
func (c *Cache) Writeback(addr mem.Addr, class mem.ClassID) bool {
	c.clock++
	i := c.find(addr)
	if i < 0 {
		c.Misses++
		return false
	}
	c.tags[i] |= dirtyBit
	c.used[i] = c.clock
	c.Hits++
	return true
}

// Contains reports whether addr is resident, without touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool { return c.find(addr) >= 0 }

// OccupancyByClass counts valid lines held by each class, the monitoring
// feature existing QoS architectures expose for the shared cache. It
// allocates a map per call; monitoring loops should use OccupancyInto.
func (c *Cache) OccupancyByClass() map[mem.ClassID]int {
	var occ [mem.MaxClasses]int
	c.OccupancyInto(&occ)
	m := make(map[mem.ClassID]int)
	for cls, n := range occ {
		if n > 0 {
			m[mem.ClassID(cls)] = n
		}
	}
	return m
}

// OccupancyInto is the allocation-free variant of OccupancyByClass: dst
// is zeroed and filled with each class's valid-line count.
func (c *Cache) OccupancyInto(dst *[mem.MaxClasses]int) {
	for i := range dst {
		dst[i] = 0
	}
	for _, w := range c.tags {
		if w&validBit != 0 {
			dst[classOf(w)]++
		}
	}
}
