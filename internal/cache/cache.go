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

// A line is two parallel array entries: lo holds line-number bits 31–0,
// and hi holds valid | dirty | class | rank | line-number bits 36–32,
// high to low. A byte address is mem.AddrBits wide and a line
// 2^LineShift bytes, so a line number needs lineBits; a lookup panics on
// a wider one, which no caller can produce (soc.Tile.Access drops the
// bits above the machine's width, a restore refuses them). The class
// field holds any ClassID below mem.MaxClasses, the rank field a way's
// recency within its set, 0 the most recent. The hit scan compares lo
// first and reads hi only when it matches, so a miss reads nothing but
// the set's lo words (32 B for an 8-way set). The victim scan, aging and
// dirtying read and write hi alone; a fill writes both. An invalid line
// is an hi entry without the valid bit; only its rank field may be
// nonzero, and nothing reads it.
const (
	lineBits   = mem.AddrBits - mem.LineShift
	loBits     = 32
	rankShift  = lineBits - loBits
	rankBits   = 5
	classShift = rankShift + rankBits
	classBits  = 4
	lineMask   = uint64(1)<<lineBits - 1
	hiLineMask = uint16(1)<<rankShift - 1
	rankMask   = uint16(1)<<rankBits - 1
	rankField  = rankMask << rankShift
	classMask  = uint16(1)<<classBits - 1
	dirtyBit   = uint16(1) << 14
	validBit   = uint16(1) << 15
	matchMask  = validBit | hiLineMask
)

// The fields must fill hi without overlap, every class must fit its field
// and every rank of a MaxWays-way set its own.
var (
	_ [14 - classShift - classBits]struct{}
	_ [classShift + classBits - 14]struct{}
	_ [1<<classBits - mem.MaxClasses]struct{}
	_ [1<<rankBits - 1 - MaxWays]struct{}
)

func packHi(lineID uint64, class mem.ClassID, dirty bool) uint16 {
	h := validBit | uint16(class)<<classShift | uint16(lineID>>loBits)
	if dirty {
		h |= dirtyBit
	}
	return h
}

func classOf(h uint16) mem.ClassID { return mem.ClassID(h >> classShift & classMask) }

func rankOf(h uint16) uint16 { return h >> rankShift & rankMask }

// MaxWays bounds the associativity: a way's recency rank within its set
// fills rankBits.
const MaxWays = 31

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
	// lo and hi hold numSets * ways lines, set-major. A set's n valid
	// ways rank 0..n-1: no line is invalidated outside restore, so a fill
	// into an invalid way takes rank 0 and ages every valid way by one.
	lo []uint32
	hi []uint16

	// occ counts each class's valid lines: a fill adds one to the filling
	// class, an eviction takes one from the victim's. Restore recounts it.
	// The counters and the partition bounds are narrow so the struct
	// stays within 256 B: an L1's arrays are 3 KiB, and the struct is
	// part of its bytes per line (TestCacheBytesPerLine).
	occ [mem.MaxClasses]int32

	// partWays[class] == 0 means the class is unrestricted.
	partStart [mem.MaxClasses]uint8
	partWays  [mem.MaxClasses]uint8

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
		lo:      make([]uint32, numSets*cfg.Ways),
		hi:      make([]uint16, numSets*cfg.Ways),
	}
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Partition restricts allocations by class to ways [start, start+n).
// Lookups still search every way, so repartitioning never loses data; it
// only changes where future victims are chosen. Passing n == 0 removes the
// class's restriction.
func (c *Cache) Partition(class mem.ClassID, start, n int) {
	if n < 0 || start < 0 || start+n > c.cfg.Ways {
		panic(fmt.Sprintf("cache: partition [%d,%d) outside %d ways", start, start+n, c.cfg.Ways))
	}
	c.partStart[class] = uint8(start)
	c.partWays[class] = uint8(n)
}

// setBase returns the index of the first way of lineID's set. numSets is
// a power of two, so the set index is a mask.
func (c *Cache) setBase(lineID uint64) int {
	return int(lineID&uint64(c.numSets-1)) * c.cfg.Ways
}

// find returns the index of line id, whose set starts at base, or -1. It
// panics on a line number wider than lineBits: the compare sees only
// lineBits of it, so a wider one would alias a resident line.
func (c *Cache) find(id uint64, base int) int {
	if id > lineMask {
		panic(fmt.Sprintf("cache: address %#x beyond the %d-bit physical address space", id<<mem.LineShift, mem.AddrBits))
	}
	lo, hi := uint32(id), validBit|uint16(id>>loBits)
	for i, l := range c.lo[base : base+c.cfg.Ways] {
		if l == lo && c.hi[base+i]&matchMask == hi {
			return base + i
		}
	}
	return -1
}

// touch makes way i the most recently used of the set starting at base:
// it takes rank 0, and every way ranked below its old rank ages by one.
func (c *Cache) touch(base, i int) {
	if r := rankOf(c.hi[i]); r != 0 {
		age(c.hi[base:base+c.cfg.Ways], r)
		c.hi[i] &^= rankField
	}
}

// age adds one to every rank in set below r. rank-r borrows into the top
// bit iff rank < r, and r <= MaxWays, so a rank never carries out of its
// field. An invalid way ages too: its rank is never read.
func age(set []uint16, r uint16) {
	for j, h := range set {
		set[j] = h + (rankOf(h)-r)>>15<<rankShift
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
			c.hi[i] |= dirtyBit
		}
		c.Hits++
		return Result{Hit: true}
	}
	c.Misses++

	// Victim selection within the class's allowed ways: the first
	// invalid way, else the least recently used (the highest rank).
	start, n := 0, c.cfg.Ways
	if pw := c.partWays[class]; pw > 0 {
		start, n = int(c.partStart[class]), int(pw)
	}
	set := c.hi[base : base+c.cfg.Ways]
	v, r := start, uint16(0)
	for j, h := range set[start : start+n] {
		if h&validBit == 0 {
			v, r = start+j, MaxWays
			break
		}
		if hr := rankOf(h); hr > r {
			v, r = start+j, hr
		}
	}
	res := Result{}
	if h := set[v]; h&validBit != 0 {
		c.Evictions++
		dirty := h&dirtyBit != 0
		if dirty {
			c.DirtyEvictions++
		}
		line := uint64(h&hiLineMask)<<loBits | uint64(c.lo[base+v])
		victim := Victim{Addr: mem.Addr(line << mem.LineShift), Class: classOf(h), Dirty: dirty}
		c.occ[victim.Class]--
		res = Result{Evicted: true, Victim: victim}
	}
	// The filled way takes rank 0; an invalid one outranked every valid
	// way (r = MaxWays), so all of them age.
	age(set, r)
	c.lo[base+v] = uint32(id)
	set[v] = packHi(id, class, write)
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
	c.hi[i] |= dirtyBit
	c.touch(base, i)
	c.Hits++
	return true
}

// Contains reports whether addr is resident, without touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool {
	id := addr.LineID()
	return c.find(id, c.setBase(id)) >= 0
}

// OccupancyInto writes the valid lines held by each class into dst, a
// copy of the kept counters: the monitoring counter existing QoS
// architectures expose for the shared cache (Intel CMT's occupancy).
func (c *Cache) OccupancyInto(dst *[mem.MaxClasses]int) {
	for cls, n := range c.occ {
		dst[cls] = int(n)
	}
}
