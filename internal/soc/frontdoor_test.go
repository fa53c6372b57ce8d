package soc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// newDoorHarness builds a minimal system (no tiles attached) so the front
// door can be exercised directly against a real controller.
func newDoorHarness(t *testing.T, readQ int) (*System, *frontDoor) {
	t.Helper()
	cfg := testCfg8()
	cfg.DRAM.FrontReadQ = readQ
	reg := qos.NewRegistry()
	reg.MustAdd("a", 1, 0)
	reg.MustAdd("b", 1, 0)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.doors[0]
}

func pkt(class mem.ClassID, line int) *mem.Packet {
	return &mem.Packet{Addr: mem.Addr(line * mem.LineSize), Kind: mem.Read, Class: class, MC: 0}
}

func TestFrontDoorAdmitsUpToCapacity(t *testing.T) {
	sys, d := newDoorHarness(t, 4)
	for i := 0; i < 10; i++ {
		d.park(pkt(0, i))
	}
	d.tick(0)
	if got := sys.mcs[0].QueuedReads(); got != 4 {
		t.Fatalf("admitted %d reads into a 4-slot queue", got)
	}
	if d.Parked() != 6 {
		t.Fatalf("parked = %d, want 6 left waiting", d.Parked())
	}
}

func TestFrontDoorRoundRobinAcrossClasses(t *testing.T) {
	sys, d := newDoorHarness(t, 4)
	// Class 0 heavily backlogged, class 1 lightly.
	for i := 0; i < 8; i++ {
		d.park(pkt(0, i))
	}
	d.park(pkt(1, 100))
	d.park(pkt(1, 101))
	d.tick(0)
	// 4 slots granted RR: classes alternate, so class 1's two requests
	// are both admitted despite class 0's backlog.
	q := sys.mcs[0]
	if q.QueuedReads() != 4 {
		t.Fatalf("queued %d", q.QueuedReads())
	}
	if cls1 := d.reads[1].Len(); cls1 != 0 {
		t.Fatalf("class 1 still has %d parked requests; RR should have admitted both", cls1)
	}
}

func TestFrontDoorFIFOWithinClass(t *testing.T) {
	_, d := newDoorHarness(t, 2)
	a, b, c := pkt(0, 1), pkt(0, 2), pkt(0, 3)
	d.park(a)
	d.park(b)
	d.park(c)
	d.tick(0)
	// Two slots: a and b admitted, c still parked.
	front, _ := d.reads[0].Front()
	if d.Parked() != 1 || front != c {
		t.Fatal("within-class admission is not FIFO")
	}
}

func TestFrontDoorWritebacksSeparate(t *testing.T) {
	sys, d := newDoorHarness(t, 4)
	wb := &mem.Packet{Addr: 0x40, Kind: mem.Writeback, Class: 0, MC: 0}
	d.park(wb)
	d.park(pkt(0, 9))
	d.tick(0)
	if sys.mcs[0].QueuedWrites() != 1 || sys.mcs[0].QueuedReads() != 1 {
		t.Fatalf("writes=%d reads=%d, want 1/1", sys.mcs[0].QueuedWrites(), sys.mcs[0].QueuedReads())
	}
}

func TestFrontDoorInboxDelay(t *testing.T) {
	sys, d := newDoorHarness(t, 4)
	d.inbox.Push(pkt(0, 5), 10)
	d.tick(9)
	if sys.mcs[0].QueuedReads() != 0 {
		t.Fatal("packet admitted before its arrival cycle")
	}
	d.tick(10)
	if sys.mcs[0].QueuedReads() != 1 {
		t.Fatal("packet not admitted at its arrival cycle")
	}
}

func TestFrontDoorBacklogAdmittedOverTime(t *testing.T) {
	// As front-end reservations are released (simulated here by arrivals
	// being spread over ticks against a large queue), the whole backlog
	// flows through in class-fair order. End-to-end drain with service
	// is covered by the system tests.
	sys, d := newDoorHarness(t, 64)
	for i := 0; i < 20; i++ {
		d.park(pkt(mem.ClassID(i%2), i*7))
	}
	d.tick(0)
	if sys.mcs[0].QueuedReads() != 20 || d.Parked() != 0 {
		t.Fatalf("queued=%d parked=%d, want full admission into a 64-slot queue",
			sys.mcs[0].QueuedReads(), d.Parked())
	}
}

// acceptLog records the class of each read in the order the controller
// accepted it.
type acceptLog struct{ classes []mem.ClassID }

func (a *acceptLog) OnAccept(p *mem.Packet, now uint64) { a.classes = append(a.classes, p.Class) }
func (a *acceptLog) OnPick(p *mem.Packet, now uint64)   {}

// TestFrontDoorMaskKeepsTheScanOrder replays random parks and ticks
// against a class-by-class scan whose pointer moves only past a class it
// admits: the same classes are admitted in the same order and rrNext ends
// on the same class, also when the controller refuses a reservation
// mid-round. A round that admits nothing leaves the door as it found it.
func TestFrontDoorMaskKeepsTheScanOrder(t *testing.T) {
	const readQ = 5
	sys, d := newDoorHarness(t, readQ)
	rng := rand.New(rand.NewSource(1))
	var parked [mem.MaxClasses]int
	rrNext, refusals := 0, 0
	for round := 0; round < 2000; round++ {
		// A fresh controller stands for readQ - held freed slots.
		log := &acceptLog{}
		mc, err := dram.NewController(0, sys.cfg.DRAM, func(*mem.Packet, uint64) {})
		if err != nil {
			t.Fatal(err)
		}
		mc.SetScheduler(dram.SchedEDF, log)
		held := rng.Intn(readQ + 1)
		for i := 0; i < held; i++ {
			mc.TryReserveRead()
		}
		sys.mcs[0], d.mc = mc, mc
		for i := rng.Intn(8); i > 0; i-- {
			cls := mem.ClassID(rng.Intn(mem.MaxClasses))
			if rng.Intn(2) == 0 {
				cls %= 3 // a few busy classes, the rest sparse
			}
			d.park(pkt(cls, round*8+i))
			parked[cls]++
		}

		// The scan, on counts: the next class with parked reads at or
		// after the pointer, while a slot is free.
		var want []mem.ClassID
		free, total := readQ-held, 0
		for _, n := range parked {
			total += n
		}
		for ; total > 0; free-- {
			if free == 0 {
				refusals++
				break
			}
			cls := rrNext
			for parked[cls] == 0 {
				cls = (cls + 1) % mem.MaxClasses
			}
			rrNext = (cls + 1) % mem.MaxClasses
			parked[cls]--
			total--
			want = append(want, mem.ClassID(cls))
		}

		before := *d
		d.tick(uint64(round))
		if !reflect.DeepEqual(log.classes, want) || d.rrNext != rrNext || d.Parked() != total {
			t.Fatalf("round %d: admitted %v, rrNext %d, parked %d; the scan admits %v, rrNext %d, parked %d",
				round, log.classes, d.rrNext, d.Parked(), want, rrNext, total)
		}
		if len(want) == 0 && (d.rrNext != before.rrNext || d.waiting != before.waiting || d.readCount != before.readCount) {
			t.Fatalf("round %d: a tick that admitted nothing moved the door: rrNext %d -> %d, waiting %016b -> %016b, parked %d -> %d",
				round, before.rrNext, d.rrNext, before.waiting, d.waiting, before.readCount, d.readCount)
		}
	}
	if refusals < 100 {
		t.Fatalf("only %d rounds ended on a refused reservation", refusals)
	}
}

// TestFrontDoorFreedSlotsAlternate holds two classes backlogged at the
// door while the controller frees one read slot every period cycles: the
// classes split the freed slots evenly whatever the period. A pointer
// that also moved on refusals returned to the same class at every freed
// slot when period+1 was even, and the other class was never admitted.
func TestFrontDoorFreedSlotsAlternate(t *testing.T) {
	const readQ, slots = 4, 41
	for period := 1; period <= 4; period++ {
		t.Run(fmt.Sprintf("period-%d", period), func(t *testing.T) {
			sys, d := newDoorHarness(t, readQ)
			for i := 0; i < slots; i++ {
				d.park(pkt(0, 2*i))
				d.park(pkt(1, 2*i+1))
			}
			log := &acceptLog{}
			for now := 0; now < slots*period; now++ {
				// A fresh controller with one slot free on the freeing
				// cycles and none in between.
				mc, err := dram.NewController(0, sys.cfg.DRAM, func(*mem.Packet, uint64) {})
				if err != nil {
					t.Fatal(err)
				}
				mc.SetScheduler(dram.SchedEDF, log)
				held := readQ
				if now%period == 0 {
					held--
				}
				for ; held > 0; held-- {
					mc.TryReserveRead()
				}
				sys.mcs[0], d.mc = mc, mc
				d.tick(uint64(now))
			}
			var got [2]int
			for _, c := range log.classes {
				got[c]++
			}
			if len(log.classes) != slots || got[0] < slots/2 || got[1] < slots/2 {
				t.Fatalf("%d slots freed every %d cycles: admitted %d of class 0 and %d of class 1, want %d and %d in some order",
					slots, period, got[0], got[1], slots/2, slots-slots/2)
			}
		})
	}
}

// TestFrontDoorLetsTheWriterThrough is the machine-level form of the
// door's rule: one write-stream tile against four read-stream tiles on
// the 8-core machine, no QoS. The writer's loads miss behind the readers'
// flood and need the door to admit them between the readers'.
func TestFrontDoorLetsTheWriterThrough(t *testing.T) {
	cfg := testCfg8()
	reg := qos.NewRegistry()
	wr := reg.MustAdd("writer", 1, cfg.L3Ways/2)
	rd := reg.MustAdd("readers", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, wr.ID, workload.NewStream("wstream", tileRegion(0), 128, true)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := sys.Attach(i, rd.ID, workload.NewStream("rstream", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys.Run(500_000)
	parked := 0
	for _, d := range sys.doors {
		parked += d.reads[wr.ID].Len()
	}
	if ops := sys.tiles[0].Core().OpsRetired(); ops < 10_000 {
		t.Fatalf("the writer retired %d ops in 500k cycles, want at least 10000 (%d of its reads parked at the doors)", ops, parked)
	}
}
