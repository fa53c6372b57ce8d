package cache

import (
	"testing"

	"pabst/internal/mem"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	c.Access(0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, 0)
	}
}

func BenchmarkAccessMissEvict(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i*mem.LineSize), i%4 == 0, 0)
	}
}

func BenchmarkAccessPartitioned(b *testing.B) {
	c := New(Config{SizeBytes: 512 * 1024, Ways: 16})
	c.Partition(0, 0, 8)
	c.Partition(1, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false, mem.ClassID(i%2))
	}
}

func BenchmarkWriteback(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	for i := 0; i < 4096; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Writeback(mem.Addr((i%4096)*mem.LineSize), 0)
	}
}

// BenchmarkAccessColdSets walks L1 -> L2 -> L3 slice the way a simulated
// miss does, over the arrays of a 256-tile machine, with tile and set
// strides that leave nothing in the host's caches between visits: what
// it times is host misses on the tag arrays, which the benchmarks above
// (one hot line, sequential sets) cannot see.
func BenchmarkAccessColdSets(b *testing.B) { benchColdSets(b, false) }

// BenchmarkAccessColdSetsPartitioned is BenchmarkAccessColdSets with the
// L3 split between two classes, half the ways each, as every workload
// machine's L3 is: the victim scan covers one partition of the set.
func BenchmarkAccessColdSetsPartitioned(b *testing.B) { benchColdSets(b, true) }

func benchColdSets(b *testing.B, partitioned bool) {
	type tile struct{ l1, l2, l3 *Cache }
	var tiles [256]tile
	for i := range tiles {
		tiles[i] = tile{
			l1: New(Config{SizeBytes: 32 * 1024, Ways: 8}),
			l2: New(Config{SizeBytes: 256 * 1024, Ways: 8}),
			l3: New(Config{SizeBytes: 512 * 1024, Ways: 16}),
		}
		if partitioned {
			tiles[i].l3.Partition(0, 0, 8)
			tiles[i].l3.Partition(1, 8, 8)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tiles[i*97%len(tiles)]
		addr := mem.Addr(i * 7919 * mem.LineSize)
		class := mem.ClassID(0)
		if partitioned {
			class = mem.ClassID(i / len(tiles) & 1)
		}
		if t.l1.Access(addr, false, class).Hit || t.l2.Access(addr, false, class).Hit {
			continue
		}
		t.l3.Access(addr, i%4 == 0, class)
	}
}
