package cache

import (
	"encoding/binary"
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

// MaxWays bounds the associativity: a way's recency rank within its set
// is one byte, and a checkpoint stores it as 1+rank.
const MaxWays = 255

// Ranks age eight ways at a time as bytes of one word (see age); a
// rank below 128 leaves each byte's top bit free to stop the borrow.
const (
	byteLSBs  = 0x0101010101010101
	byteMSBs  = 0x8080808080808080
	wordWays  = 8
	wordRanks = 128
)

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
	// rank is each way's recency within its set, parallel to tags: 0 is
	// the most recently used. A set's ranks are a permutation of
	// 0..ways-1, and since no line is invalidated outside restore, its n
	// valid ways hold ranks 0..n-1 and its invalid ways n..ways-1.
	rank     []uint8
	wordWise bool // age steps through a set's ranks a word at a time

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
	// Every way starts invalid, ranked in way order: one set's identity
	// pattern, doubled across the array.
	rank := make([]uint8, numSets*cfg.Ways)
	for i := range cfg.Ways {
		rank[i] = uint8(i)
	}
	for n := cfg.Ways; n < len(rank); n *= 2 {
		copy(rank[n:], rank[:n])
	}
	return &Cache{
		cfg:      cfg,
		numSets:  numSets,
		tags:     make([]uint64, numSets*cfg.Ways),
		rank:     rank,
		wordWise: cfg.Ways%wordWays == 0 && cfg.Ways <= wordRanks,
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
	if r := c.rank[i]; r != 0 {
		c.age(c.rank[base:base+c.cfg.Ways], r)
		c.rank[i] = 0
	}
}

// age adds one to every rank in set below r.
func (c *Cache) age(set []uint8, r uint8) {
	if !c.wordWise {
		for j, x := range set {
			if x < r {
				set[j] = x + 1
			}
		}
		return
	}
	// Per byte x (x, r < 128): (x|0x80)-r keeps its top bit iff x >= r
	// and never borrows from the next byte, so the inverted top bits,
	// moved to the low bit, add one to every x < r.
	rs := uint64(r) * byteLSBs
	for j := 0; j+wordWays <= len(set); j += wordWays {
		x := binary.LittleEndian.Uint64(set[j:])
		x += (^((x | byteMSBs) - rs) & byteMSBs) >> 7
		binary.LittleEndian.PutUint64(set[j:], x)
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

	// Victim selection within the class's allowed ways: the first
	// invalid way, else the least recently used (the highest rank).
	start, n := 0, c.cfg.Ways
	if pw := c.partWays[class]; pw > 0 {
		start, n = c.partStart[class], pw
	}
	first := base + start
	v := first
	for i := first; i < first+n; i++ {
		if c.tags[i]&validBit == 0 {
			v = i
			break
		}
		if c.rank[i] > c.rank[v] {
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
		victim := Victim{Addr: mem.Addr(w & lineMask << mem.LineShift), Class: classOf(w), Dirty: dirty}
		c.occ[victim.Class]--
		res = Result{Evicted: true, Victim: victim}
	}
	c.tags[v] = pack(id, class, write)
	c.occ[class]++
	c.touch(base, v)
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
