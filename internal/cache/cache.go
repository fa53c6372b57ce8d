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
}

// A line is one packed word: valid | dirty | class | rank | line number,
// high to low. A byte address is mem.AddrBits wide and a line
// 2^LineShift bytes, so a line number needs lineBits; Access panics on a
// wider one, which no caller can produce (soc.Tile.Access drops the bits
// above the machine's width, a restore refuses them). The class field
// holds any ClassID below mem.MaxClasses, the rank field a way's recency
// within its set, 0 the most recent. The hit scan compares a word under
// matchMask against validBit|lineID and so reads nothing but the set's
// tags (one host cache line for an 8-way set). An invalid line is a word
// without the valid bit; only its rank field may be nonzero, and nothing
// reads it.
const (
	lineBits   = mem.AddrBits - mem.LineShift
	rankBits   = 8
	rankShift  = lineBits
	classBits  = 4
	classShift = rankShift + rankBits
	lineMask   = uint64(1)<<lineBits - 1
	rankMask   = uint64(1)<<rankBits - 1
	rankField  = rankMask << rankShift
	classMask  = uint64(1)<<classBits - 1
	dirtyBit   = uint64(1) << 62
	validBit   = uint64(1) << 63
	matchMask  = validBit | lineMask
)

// The fields must fill the word without overlap, every class must fit
// its field and every rank of a MaxWays-way set its own.
var (
	_ [62 - classShift - classBits]struct{}
	_ [classShift + classBits - 62]struct{}
	_ [1<<classBits - mem.MaxClasses]struct{}
	_ [1<<rankBits - 1 - MaxWays]struct{}
)

func pack(lineID uint64, class mem.ClassID, dirty bool) uint64 {
	w := validBit | uint64(class)<<classShift | lineID
	if dirty {
		w |= dirtyBit
	}
	return w
}

func classOf(w uint64) mem.ClassID { return mem.ClassID(w >> classShift & classMask) }

func rankOf(w uint64) uint64 { return w >> rankShift & rankMask }

// MaxWays bounds the associativity: a way's recency rank within its set
// fills rankBits, and a checkpoint stores it as 1+rank in a byte.
const MaxWays = 255

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
	// tags holds numSets * ways packed lines, set-major. A set's n valid
	// ways rank 0..n-1: no line is invalidated outside restore, so a fill
	// into an invalid way takes rank 0 and ages every valid way by one.
	tags []uint64

	// occ counts each class's valid lines: a fill adds one to the filling
	// class, an eviction takes one from the victim's. Restore recounts it.
	occ [mem.MaxClasses]int

	// partWays[class] == 0 means the class is unrestricted.
	partStart [mem.MaxClasses]int
	partWays  [mem.MaxClasses]int

	// Stats
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New builds a cache. It panics on invalid geometry, which is a
// configuration error caught during system construction.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Ways > MaxWays || cfg.SizeBytes <= 0 {
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
	return int(lineID&uint64(c.numSets-1)) * c.cfg.Ways
}

// find returns the index in tags of line id, whose set starts at base, or
// -1.
func (c *Cache) find(id uint64, base int) int {
	for i, w := range c.tags[base : base+c.cfg.Ways] {
		if w&matchMask == validBit|id {
			return base + i
		}
	}
	return -1
}

// touch makes way i the most recently used of the set starting at base:
// it takes rank 0, and every way ranked below its old rank ages by one.
func (c *Cache) touch(base, i int) {
	if r := rankOf(c.tags[i]); r != 0 {
		age(c.tags[base:base+c.cfg.Ways], r)
		c.tags[i] &^= rankField
	}
}

// age adds one to every rank in set below r. rank-r borrows into the top
// bit iff rank < r, and r <= MaxWays, so a rank never carries out of its
// field. An invalid way ages too: its rank is never read.
func age(set []uint64, r uint64) {
	for j, w := range set {
		set[j] = w + (rankOf(w)-r)>>63<<rankShift
	}
}

// Access performs a demand load (write=false) or store (write=true) by
// class. On a miss the line is allocated in the class's partition and the
// displaced victim, if any, is reported.
func (c *Cache) Access(addr mem.Addr, write bool, class mem.ClassID) Result {
	id := addr.LineID()
	base := c.setBase(id)
	if i := c.find(id, base); i >= 0 {
		c.touch(base, i)
		if write {
			c.tags[i] |= dirtyBit
		}
		c.Hits++
		return Result{Hit: true}
	}
	c.Misses++
	if id > lineMask {
		panic(fmt.Sprintf("cache: address %#x beyond the %d-bit physical address space", uint64(addr), mem.AddrBits))
	}

	// Victim selection within the class's allowed ways: the first
	// invalid way, else the least recently used (the highest rank).
	start, n := 0, c.cfg.Ways
	if pw := c.partWays[class]; pw > 0 {
		start, n = c.partStart[class], pw
	}
	set := c.tags[base : base+c.cfg.Ways]
	v, r := start, uint64(0)
	for j, w := range set[start : start+n] {
		if w&validBit == 0 {
			v, r = start+j, MaxWays
			break
		}
		if wr := rankOf(w); wr > r {
			v, r = start+j, wr
		}
	}
	res := Result{}
	if w := set[v]; w&validBit != 0 {
		c.Evictions++
		dirty := w&dirtyBit != 0
		if dirty {
			c.DirtyEvictions++
		}
		victim := Victim{Addr: mem.Addr(w & lineMask << mem.LineShift), Class: classOf(w), Dirty: dirty}
		c.occ[victim.Class]--
		res = Result{Evicted: true, Victim: victim}
	}
	// The filled way takes rank 0; an invalid one outranked every valid
	// way (r = MaxWays), so all of them age.
	age(set, r)
	set[v] = pack(id, class, write)
	c.occ[class]++
	return res
}

// Writeback merges an evicted dirty line from a lower-level cache: if the
// line is resident it is dirtied in place (and counted as a hit) and true
// is returned; otherwise false is returned and nothing is allocated
// (write-no-allocate), leaving the caller to forward the data to memory.
func (c *Cache) Writeback(addr mem.Addr, class mem.ClassID) bool {
	id := addr.LineID()
	base := c.setBase(id)
	i := c.find(id, base)
	if i < 0 {
		c.Misses++
		return false
	}
	c.tags[i] |= dirtyBit
	c.touch(base, i)
	c.Hits++
	return true
}

// Contains reports whether addr is resident, without touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool {
	id := addr.LineID()
	return c.find(id, c.setBase(id)) >= 0
}

// OccupancyByClass returns the valid lines held by each class, the
// monitoring counter existing QoS architectures expose for the shared
// cache (Intel CMT's occupancy). It allocates a map per call; monitoring
// loops should use OccupancyInto.
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
// receives each class's valid-line count, a copy of the kept counters.
func (c *Cache) OccupancyInto(dst *[mem.MaxClasses]int) { *dst = c.occ }
