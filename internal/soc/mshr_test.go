package soc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// TestMSHRTableMatchesMap drives the table and a map[uint64][]uint64
// reference with the same random insert / coalesce / lookup / remove /
// reset sequence,
// at one, the paper's 16, and 64 MSHRs, and compares them after every
// step. Coalescing is frequent enough that lines outgrow the inline
// waiter slots, and removals pick absent lines too. Inserts respect the
// MSHR bound as the tile does, and the table never reallocates.
func TestMSHRTableMatchesMap(t *testing.T) {
	for _, capacity := range []int{1, 16, 64} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			tbl := newMSHRTable(capacity)
			ref := map[uint64][]uint64{}
			// Lines come from a universe twice the capacity, scattered so
			// neighbours in the universe are not neighbours in value.
			pick := func() uint64 { return uint64(rng.Intn(2*capacity+1))*0x9E3779B97F4A7C15 + 1 }
			tok := uint64(0)
			spilled := 0
			for step := 0; step < 20_000; step++ {
				line := pick()
				switch op := rng.Intn(100); {
				case op < 30:
					if keyIn(ref, line) || len(ref) == capacity {
						break
					}
					tok++
					tbl.insert(line, tok)
					ref[line] = []uint64{tok}
				case op < 70: // coalesce onto an outstanding line
					if len(ref) == 0 {
						break
					}
					line = tbl.lines[rng.Intn(tbl.len())]
					tok++
					tbl.lookup(line).addWaiter(tok)
					ref[line] = append(ref[line], tok)
					if len(ref[line]) > mshrInline {
						spilled++
					}
				case op < 99: // present or absent
					tbl.remove(line)
					delete(ref, line)
				default:
					tbl.reset()
					ref = map[uint64][]uint64{}
				}
				if e := tbl.lookup(line); (e != nil) != keyIn(ref, line) {
					t.Fatalf("step %d: lookup(%#x) = %v, reference has it %v", step, line, e != nil, keyIn(ref, line))
				}
				compareMSHR(t, step, tbl, ref)
				if cap(tbl.lines) != capacity || cap(tbl.entries) != capacity {
					t.Fatalf("step %d: table grew to %d/%d, want %d", step, cap(tbl.lines), cap(tbl.entries), capacity)
				}
			}
			if spilled == 0 {
				t.Fatal("no line outgrew the inline waiter slots; the sequence misses the overflow path")
			}
		})
	}
}

func keyIn(m map[uint64][]uint64, k uint64) bool {
	_, ok := m[k]
	return ok
}

// compareMSHR checks the table's occupancy, every line's waiter list and
// the checkpoint's line order against the reference.
func compareMSHR(t *testing.T, step int, tbl *mshrTable, ref map[uint64][]uint64) {
	t.Helper()
	if tbl.len() != len(ref) {
		t.Fatalf("step %d: len %d, reference %d", step, tbl.len(), len(ref))
	}
	want := make([]uint64, 0, len(ref))
	for line, waiters := range ref {
		want = append(want, line)
		e := tbl.lookup(line)
		if e == nil {
			t.Fatalf("step %d: line %#x missing", step, line)
		}
		got := make([]uint64, e.n)
		for i := range got {
			got[i] = e.waiter(int32(i))
		}
		if !slices.Equal(got, waiters) {
			t.Fatalf("step %d: line %#x waiters %v, reference %v", step, line, got, waiters)
		}
	}
	slices.Sort(want)
	if got := tbl.sortedLines(nil); !slices.Equal(got, want) {
		t.Fatalf("step %d: sortedLines %v, reference %v", step, got, want)
	}
}

// TestMSHRTableBytes gates a tile's miss table at the paper's 16 MSHRs:
// one line word and one 80 B entry per MSHR plus the table header. The
// table is on every tile, so a hash table's 4x slack per MSHR shows in
// every machine's live heap. The bytes are the structure's own — the
// table header plus each array's capacity — not the process's
// allocation counter, which other goroutines move too.
func TestMSHRTableBytes(t *testing.T) {
	tbl := newMSHRTable(16)
	bytes := unsafe.Sizeof(*tbl) +
		uintptr(cap(tbl.lines))*unsafe.Sizeof(tbl.lines[0]) +
		uintptr(cap(tbl.entries))*unsafe.Sizeof(tbl.entries[0])
	if bytes > 1536 {
		t.Fatalf("newMSHRTable(16) holds %d B, want <= 1536", bytes)
	}
}

// streamMachine is the 8-tile machine with one stream tile, MSHR-bound,
// and maxMSHRs outstanding misses per tile.
func streamMachine(t *testing.T, maxMSHRs int) *System {
	t.Helper()
	cfg := testCfg8()
	cfg.MaxMSHRs = maxMSHRs
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 64, false)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRestoreRejectsMSHROverflow: a CRC-valid image whose tile holds
// more outstanding misses than the restoring machine has MSHRs fails
// with ErrCorrupt; one holding exactly MaxMSHRs restores. The image
// comes from the same machine built with one more MSHR, run until that
// tile is full.
func TestRestoreRejectsMSHROverflow(t *testing.T) {
	const maxMSHRs = 16
	for _, tc := range []struct {
		name   string
		stored int
		want   error
	}{
		{"MaxMSHRs", maxMSHRs, nil},
		{"MaxMSHRs+1", maxMSHRs + 1, ckpt.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := streamMachine(t, tc.stored)
			for i := 0; src.tiles[0].mshr.len() < tc.stored; i++ {
				if i == 100_000 {
					t.Fatalf("tile 0 never held %d misses", tc.stored)
				}
				src.Run(1)
			}
			dst := streamMachine(t, maxMSHRs)
			if _, err := carry(src, dst, dst.limits()); !errors.Is(err, tc.want) {
				t.Fatalf("%d misses on a %d-MSHR tile: got %v, want %v", tc.stored, maxMSHRs, err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsMSHRWithoutWaiter: every miss is taken by an op
// that waits on it, so an MSHR record with no waiter — a nil list, as a
// machine with an L2 prefetcher stored a prefetch, or an empty one — is
// ErrCorrupt. At the parent of this test both loaded as a prefetch in
// flight.
func TestRestoreRejectsMSHRWithoutWaiter(t *testing.T) {
	for name, waiters := range map[string][]uint64{"nil": nil, "empty": {}} {
		// The MSHR walk's layout: a record count, then per record the
		// line and its waiter list.
		image := func(c *ckpt.Codec) {
			n := 2
			c.Len(&n, 16)
			for _, r := range []struct {
				line    uint64
				waiters []uint64
			}{{7, []uint64{42}}, {9, waiters}} {
				c.U64(&r.line)
				ckpt.NilSlice(c, &r.waiters, 8, (*ckpt.Codec).U64)
			}
		}
		dst := newMSHRTable(16)
		if _, err := carry(ckpt.WalkFunc(image), ckpt.WalkFunc(dst.ckpt), ckpt.Limits{}); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s waiter list: got %v, want ErrCorrupt", name, err)
		}
	}
	src, dst := newMSHRTable(16), newMSHRTable(16)
	src.insert(7, 42)
	src.lookup(7).addWaiter(43)
	src.insert(9, 44)
	if _, err := carry(ckpt.WalkFunc(src.ckpt), ckpt.WalkFunc(dst.ckpt), ckpt.Limits{}); err != nil {
		t.Fatal(err)
	}
	compareMSHR(t, 0, dst, map[uint64][]uint64{7: {42, 43}, 9: {44}})
}

// TestRestoreRejectsResponseWithoutMSHR: every read a tile image holds,
// in its response inbox or its miss FIFOs, must be the tile's own with
// an MSHR for its line, or the load is ErrCorrupt. At the parent of
// this test each image loaded and the response's arrival panicked with
// "response for line ... with no MSHR" — the queued case in Run after a
// FuzzRestore restore, whose image had changed a queued miss's address.
func TestRestoreRejectsResponseWithoutMSHR(t *testing.T) {
	// Responses wait in an inbox only on the latency-only mesh; misses
	// queue behind a pacer.
	stream := func(t *testing.T) *System { return streamMachine(t, 16) }
	zoo := func(t *testing.T) *System { return zooSystem(t, qospolicy.Pair{Source: "pabst", Target: "pabst"}) }
	for name, tc := range map[string]struct {
		build func(t *testing.T) *System
		holds func(tl *Tile) bool
		poke  func(tl *Tile)
	}{
		"inbox response": {
			stream,
			func(tl *Tile) bool { return tl != nil && tl.inbox.Len() > 0 },
			func(tl *Tile) { tl.mshr.remove(tl.inbox.At(0).Addr.LineID()) },
		},
		"queued miss": {
			zoo,
			func(tl *Tile) bool { return tl != nil && tl.queued > 0 },
			func(tl *Tile) { firstQueued(tl).Addr ^= 1 << 32 },
		},
		"queued miss of another tile": {
			zoo,
			func(tl *Tile) bool { return tl != nil && tl.queued > 0 },
			func(tl *Tile) { firstQueued(tl).SrcTile = (tl.id + 1) % 8 },
		},
	} {
		src := tc.build(t)
		var tl *Tile
		for i := 0; tl == nil; i++ {
			if i == 100_000 {
				t.Fatalf("%s: no tile ever held one", name)
			}
			src.Run(1)
			for _, x := range src.tiles {
				if tc.holds(x) {
					tl = x
					break
				}
			}
		}
		if _, err := carry(src, tc.build(t), src.limits()); err != nil {
			t.Fatalf("%s: unmodified image: %v", name, err)
		}
		tc.poke(tl)
		if _, err := carry(src, tc.build(t), src.limits()); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s without an MSHR: got %v, want ErrCorrupt", name, err)
		}
	}
}

// firstQueued returns the first miss in a tile's FIFOs.
func firstQueued(tl *Tile) *mem.Packet {
	for i := range tl.missQ {
		if tl.missQ[i].Len() > 0 {
			return tl.missQ[i].At(0)
		}
	}
	return nil
}

// TestRestoreRejectsRepeatedMSHRLine: MSHR lines are stored strictly
// ascending, so a repeated line is ErrCorrupt. At the parent of this
// test it loaded as a second entry no response ever frees.
func TestRestoreRejectsRepeatedMSHRLine(t *testing.T) {
	src := newMSHRTable(16)
	src.insert(7, 42)
	src.insert(7, 43)
	src.insert(9, 44)
	if _, err := carry(ckpt.WalkFunc(src.ckpt), ckpt.WalkFunc(newMSHRTable(16).ckpt), ckpt.Limits{}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("line 7 stored twice: got %v, want ErrCorrupt", err)
	}
}

// TestRestoreRejectsQueuedMismatch: a tile's queued count must equal
// what its miss FIFOs hold. At the parent of this test a smaller count
// loaded and the tile never injected again; a larger one loaded too.
func TestRestoreRejectsQueuedMismatch(t *testing.T) {
	pair := qospolicy.Pair{Source: "pabst", Target: "pabst"}
	src := zooSystem(t, pair)
	src.Run(12_000)
	var tl *Tile
	for _, x := range src.tiles {
		if x != nil && x.queued > 0 {
			tl = x
			break
		}
	}
	if tl == nil {
		t.Fatal("no miss queued at any tile; the test needs one")
	}
	if _, err := carry(src, zooSystem(t, pair), src.limits()); err != nil {
		t.Fatalf("unmodified image: %v", err)
	}
	for _, delta := range []int{-1, 1} {
		tl.queued += delta
		if _, err := carry(src, zooSystem(t, pair), src.limits()); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("queued off by %+d: got %v, want ErrCorrupt", delta, err)
		}
		tl.queued -= delta
	}
}

// TestRestoreRejectsStrayMSHRWaiter: every MSHR waiter must be a
// distinct core op awaiting a miss, or the response completing it
// panics in the core. At the parent of this test both images loaded;
// the fuzz target, once it ran what it restored, found the first.
func TestRestoreRejectsStrayMSHRWaiter(t *testing.T) {
	for name, poke := range map[string]func(e *mshrEntry){
		"not issued": func(e *mshrEntry) { e.inline[0] += 1 << 20 },
		"twice":      func(e *mshrEntry) { e.addWaiter(e.inline[0]) },
	} {
		src := streamMachine(t, 16)
		tl := src.tiles[0]
		for i := 0; tl.mshr.len() == 0 || tl.mshr.entries[0].n == 0; i++ {
			if i == 100_000 {
				t.Fatal("no core op ever waited on tile 0's MSHRs")
			}
			src.Run(1)
		}
		poke(&tl.mshr.entries[0])
		if _, err := carry(src, streamMachine(t, 16), src.limits()); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("MSHR waiter %s: got %v, want ErrCorrupt", name, err)
		}
	}
}
