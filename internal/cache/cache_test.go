package cache

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

func lineAddr(i int) mem.Addr { return mem.Addr(i * mem.LineSize) }

// wayIndexOf locates addr and returns its way, or -1.
func (c *Cache) wayIndexOf(addr mem.Addr) int {
	if i := c.find(addr.LineID(), c.setBase(addr.LineID())); i >= 0 {
		return i % c.cfg.Ways
	}
	return -1
}

func TestHitAfterFill(t *testing.T) {
	c := New(Config{SizeBytes: 8 * 1024, Ways: 4})
	a := lineAddr(3)
	if r := c.Access(a, false, 0); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(a, false, 0); !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct construct a tiny 2-way cache with 2 sets: 4 lines.
	c := New(Config{SizeBytes: 2 * 2 * mem.LineSize, Ways: 2})
	if c.NumSets() != 2 {
		t.Fatalf("NumSets = %d, want 2", c.NumSets())
	}
	// Three lines mapping to set 0: line IDs 0, 2, 4.
	c.Access(lineAddr(0), false, 0)
	c.Access(lineAddr(2), false, 0)
	c.Access(lineAddr(0), false, 0) // touch 0 so 2 is LRU
	r := c.Access(lineAddr(4), false, 0)
	if !r.Evicted || r.Victim.Addr != lineAddr(2) {
		t.Fatalf("evicted %+v, want line 2", r.Victim)
	}
	if !c.Contains(lineAddr(0)) || c.Contains(lineAddr(2)) {
		t.Fatal("LRU evicted the wrong line")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 2 * mem.LineSize, Ways: 2})
	c.Access(lineAddr(0), true, 0) // dirty
	c.Access(lineAddr(1), false, 0)
	r := c.Access(lineAddr(2), false, 0) // evicts line 0 (LRU, dirty)
	if !r.Evicted || !r.Victim.Dirty || r.Victim.Addr != lineAddr(0) {
		t.Fatalf("victim = %+v, want dirty line 0", r.Victim)
	}
	if c.DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d, want 1", c.DirtyEvictions)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 2 * mem.LineSize, Ways: 2})
	c.Access(lineAddr(0), false, 0) // clean fill
	c.Access(lineAddr(0), true, 0)  // write hit dirties it
	c.Access(lineAddr(1), false, 0)
	r := c.Access(lineAddr(2), false, 0)
	if !r.Victim.Dirty {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestPartitionConfinesAllocations(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 8 * mem.LineSize, Ways: 8})
	c.Partition(1, 0, 2)
	c.Partition(2, 2, 6)
	// Fill far more class-1 lines than its 2 ways can hold.
	for i := 0; i < 64; i++ {
		c.Access(lineAddr(i), false, 1)
	}
	var occ [mem.MaxClasses]int
	c.OccupancyInto(&occ)
	if occ[1] > 2*c.NumSets() {
		t.Fatalf("class 1 holds %d lines, partition allows %d", occ[1], 2*c.NumSets())
	}
	// And the lines it holds sit in ways [0,2).
	for i := 0; i < 64; i++ {
		if w := c.wayIndexOf(lineAddr(i)); w >= 2 {
			t.Fatalf("class 1 line in way %d outside its partition", w)
		}
	}
}

func TestPartitionIsolation(t *testing.T) {
	// A thrashing class must not evict another class's partition.
	c := New(Config{SizeBytes: 4 * 8 * mem.LineSize, Ways: 8})
	c.Partition(1, 0, 4)
	c.Partition(2, 4, 4)
	// Class 1 working set that fits in its partition.
	for i := 0; i < 16; i++ {
		c.Access(lineAddr(i), false, 1)
	}
	// Class 2 thrashes with disjoint addresses.
	for i := 1000; i < 1600; i++ {
		c.Access(lineAddr(i), false, 2)
	}
	for i := 0; i < 16; i++ {
		if !c.Contains(lineAddr(i)) {
			t.Fatalf("class 2 thrashing evicted class 1 line %d", i)
		}
	}
}

func TestPartitionPropertyNeverOutsideWays(t *testing.T) {
	f := func(accesses []uint16, ways1 uint8) bool {
		n1 := int(ways1)%7 + 1 // 1..7 ways for class 1 of 8
		c := New(Config{SizeBytes: 8 * 8 * mem.LineSize, Ways: 8})
		c.Partition(1, 0, n1)
		c.Partition(2, n1, 8-n1)
		for _, a := range accesses {
			cls := mem.ClassID(1 + a%2)
			c.Access(lineAddr(int(a)), a%3 == 0, cls)
		}
		// Verify every resident line is inside its class partition.
		for _, a := range accesses {
			w := c.wayIndexOf(lineAddr(int(a)))
			if w < 0 {
				continue
			}
			// Cannot know which class owns the address last (both
			// classes can touch same addr in this random stream), so
			// only check when the address parity pins the class.
			cls := int(1 + a%2)
			_ = cls
			if w < 0 || w >= 8 {
				return false
			}
		}
		// Stronger check via occupancy: class 1 can hold at most
		// n1*sets lines, class 2 at most (8-n1)*sets.
		var occ [mem.MaxClasses]int
		c.OccupancyInto(&occ)
		return occ[1] <= n1*c.NumSets() && occ[2] <= (8-n1)*c.NumSets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRepartitionKeepsData(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 4 * mem.LineSize, Ways: 4})
	c.Partition(1, 0, 4)
	c.Access(lineAddr(0), false, 1)
	c.Partition(1, 0, 1) // shrink
	if !c.Contains(lineAddr(0)) {
		t.Fatal("repartitioning dropped resident data")
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 1 * mem.LineSize, Ways: 1})
	c.Access(mem.Addr(0xABCDE40), false, 3)
	r := c.Access(lineAddr(999), false, 0)
	if !r.Evicted {
		t.Fatal("expected eviction in 1-line cache")
	}
	if r.Victim.Addr != mem.Addr(0xABCDE40).Line() {
		t.Fatalf("victim addr %#x, want %#x", uint64(r.Victim.Addr), uint64(mem.Addr(0xABCDE40).Line()))
	}
	if r.Victim.Class != 3 {
		t.Fatalf("victim class %d, want 3", r.Victim.Class)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 1024, Ways: 0},
		{SizeBytes: 3 * mem.LineSize, Ways: 2},     // not multiple
		{SizeBytes: 3 * 2 * mem.LineSize, Ways: 2}, // 3 sets, not pow2
		{SizeBytes: 64, Ways: 2},                   // sub-line
		{SizeBytes: 32 * mem.LineSize, Ways: 32},   // one set, wider than the rank field holds
	}
	for _, cfg := range cases {
		func() {
			defer func() { _ = recover() }()
			New(cfg)
			t.Fatalf("config %+v did not panic", cfg)
		}()
	}
}

func TestBadPartitionPanics(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 4 * mem.LineSize, Ways: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partition accepted")
		}
	}()
	c.Partition(0, 2, 3)
}

// TestCacheBytesPerLine gates the host footprint of the three preset
// geometries (L1, L2, one L3 slice): a 4-byte lo word and a 2-byte hi
// word a line. The line state is most of a simulated machine's live
// heap, so the 8-byte word it replaced is a 33 % regression of the
// arrays. The bytes are the structure's own — the Cache struct plus
// each array's capacity, so a tail pad counts — not the process's
// allocation counter, which other goroutines move too.
func TestCacheBytesPerLine(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 32 * 1024, Ways: 8},
		{SizeBytes: 256 * 1024, Ways: 8},
		{SizeBytes: 512 * 1024, Ways: 16},
	} {
		lines := cfg.SizeBytes / mem.LineSize
		c := New(cfg)
		bytes := unsafe.Sizeof(*c) +
			uintptr(cap(c.lo))*unsafe.Sizeof(c.lo[0]) +
			uintptr(cap(c.hi))*unsafe.Sizeof(c.hi[0])
		if perLine := float64(bytes) / float64(lines); perLine > 6.5 {
			t.Errorf("%+v: a cache holds %.2f B per line, want <= 6 plus the Cache struct", cfg, perLine)
		}
	}
}

// TestWideLineNumberPanics: the lookup compares only lineBits of a line
// number, so a wider one would alias a resident line. Every entry point
// panics on it instead, and none counts it.
func TestWideLineNumberPanics(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 8 * mem.LineSize, Ways: 8})
	a := lineAddr(5)
	c.Access(a, false, 0)
	calls := []struct {
		name string
		call func(mem.Addr)
	}{
		{"Access", func(x mem.Addr) { c.Access(x, true, 0) }},
		{"Contains", func(x mem.Addr) { c.Contains(x) }},
		{"Writeback", func(x mem.Addr) { c.Writeback(x, 0) }},
	}
	for _, bit := range []uint{mem.AddrBits, mem.AddrBits + 11, 63} {
		for _, f := range calls {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x) did not panic", f.name, uint64(a|1<<bit))
					}
				}()
				f.call(a | 1<<bit)
			}()
		}
	}
	if c.Hits != 0 || c.Misses != 1 || !c.Contains(a) {
		t.Errorf("counters %d/%d after the panics, want 0/1 and line %#x resident", c.Hits, c.Misses, uint64(a))
	}
}

// storedWord is a valid line as a checkpoint stores it, built from its
// fields: valid 63 | dirty 62 | class 61–58 | line number 49–0.
func storedWord(line uint64, class mem.ClassID, dirty bool) uint64 {
	w := uint64(1)<<63 | uint64(class)<<58 | line
	if dirty {
		w |= 1 << 62
	}
	return w
}

// TestRestoreRejectsUnpackable loads well-formed images (valid CRC) of a
// 256-set, 4-way cache whose first set's line bytes break what the live
// layout relies on: valid ranks that are not a permutation of 0..n-1, a
// stored word without its valid bit, a stored line number at or above
// 2^37 or a bit between it and the class (an address wider than
// mem.AddrBits), more valid lines claimed than the image stores. Each fails with ckpt.ErrCorrupt,
// without a panic and without allocating more than the image (on its own
// goroutine: ownAlloc). The control image restores and then evicts in the
// order its ranks say.
func TestRestoreRejectsUnpackable(t *testing.T) {
	cfg := Config{SizeBytes: 256 * 4 * mem.LineSize, Ways: 4}
	lines := cfg.SizeBytes / mem.LineSize
	const oldLine = 1<<37 - 256 // the top line of set 0
	old, young := storedWord(oldLine, mem.MaxClasses-1, true), storedWord(256, 0, false)
	for _, tc := range []struct {
		name  string
		set   [4]byte // set 0's line bytes: 0 invalid, else 1+rank
		words []uint64
		claim bool // every line of the cache claims to be valid
		want  error
	}{
		{"control", [4]byte{2, 0, 1, 0}, []uint64{old, young}, false, nil},
		{"rank >= valid lines", [4]byte{3, 0, 1, 0}, []uint64{old, young}, false, ckpt.ErrCorrupt},
		{"repeated rank", [4]byte{1, 0, 1, 0}, []uint64{old, young}, false, ckpt.ErrCorrupt},
		{"word without the valid bit", [4]byte{2, 0, 1, 0}, []uint64{old &^ (1 << 63), young}, false, ckpt.ErrCorrupt},
		{"line number at 2^37", [4]byte{2, 0, 1, 0}, []uint64{old, young | 1<<37}, false, ckpt.ErrCorrupt},
		{"line number at the top of the 50-bit field", [4]byte{2, 0, 1, 0}, []uint64{old, young | 1<<49}, false, ckpt.ErrCorrupt},
		{"a bit between the line and the class", [4]byte{2, 0, 1, 0}, []uint64{old, young | 1<<57}, false, ckpt.ErrCorrupt},
		{"more valid lines than words", [4]byte{2, 0, 1, 0}, []uint64{old, young}, true, ckpt.ErrCorrupt},
	} {
		img, err := ckpt.Encode(ckpt.Header{}, ckpt.WalkFunc(func(k *ckpt.Codec) {
			k.Int(&lines)
			ranks := k.AppendRaw(lines)
			copy(ranks, tc.set[:])
			if tc.claim {
				for i := len(tc.set); i < lines; i++ {
					ranks[i] = byte(1 + i%4)
				}
			}
			for i := range tc.words {
				k.U64(&tc.words[i])
			}
			for n := uint64(1); n <= 4; n++ { // hits, misses, evictions, dirty evictions
				k.U64(&n)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		c := New(cfg)
		grew := ownAlloc(func() {
			var k *ckpt.Codec
			if k, err = ckpt.Decode(img); err == nil {
				err = k.Load(c)
			}
		})
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: restore error %v, want %v", tc.name, err, tc.want)
		}
		if grew > uint64(len(img)) {
			t.Errorf("%s: restoring a %d-byte image allocated %d bytes", tc.name, len(img), grew)
		}
		if tc.want != nil {
			continue
		}
		var occ [mem.MaxClasses]int
		c.OccupancyInto(&occ)
		c.Access(lineAddr(512), false, 0) // fills invalid way 1
		c.Access(lineAddr(768), false, 0) // fills invalid way 3
		r := c.Access(lineAddr(1024), false, 0)
		if occ[0] != 1 || occ[mem.MaxClasses-1] != 1 || c.Hits != 1 || c.DirtyEvictions != 4+1 ||
			r.Victim != (Victim{Addr: mem.Addr(oldLine << mem.LineShift), Class: mem.MaxClasses - 1, Dirty: true}) {
			t.Errorf("%s: occupancy %v, counters %d/%d, victim %+v", tc.name, occ, c.Hits, c.DirtyEvictions, r.Victim)
		}
	}
}

// ownAlloc returns the bytes a second run of f allocates on its own
// goroutine; the first run, unmeasured, stocks the process's pools as a
// steady state has them. Every allocation of the second run is profiled,
// and those whose recorded stack passes through profiled count, so
// another goroutine's allocations in the same window do not. The profile
// keeps a stack's innermost 32 frames: an allocation deeper than that
// below profiled cannot be told apart, and counts as well.
func ownAlloc(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	f()
	before := profiledBytes()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	profiled(f)
	runtime.MemProfileRate = 0
	runtime.GC() // publishes the window's allocations to the profile
	return uint64(profiledBytes() - before)
}

//go:noinline
func profiled(f func()) { f() }

// profiledBytes sums the published profile's allocations under profiled.
func profiledBytes() (n int64) {
	recs := make([]runtime.MemProfileRecord, 512)
	k, ok := runtime.MemProfile(recs, true)
	for ; !ok; k, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, k+512)
	}
	entry := reflect.ValueOf(profiled).Pointer()
	for _, r := range recs[:k] {
		stk := r.Stack()
		if len(stk) == len(r.Stack0) || slices.ContainsFunc(stk, func(pc uintptr) bool {
			fn := runtime.FuncForPC(pc - 1)
			return fn != nil && fn.Entry() == entry
		}) {
			n += r.AllocBytes
		}
	}
	return n
}
