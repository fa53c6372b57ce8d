package soc

import (
	"math/rand"
	"reflect"
	"testing"

	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
)

// newDoorHarness builds a minimal system (no tiles attached) so the front
// door can be exercised directly against a real controller.
func newDoorHarness(t *testing.T, readQ int) (*System, *frontDoor) {
	t.Helper()
	cfg := testCfg8()
	cfg.DRAM.FrontReadQ = readQ
	if cfg.DRAM.WriteHighWater > cfg.DRAM.FrontWriteQ {
		cfg.DRAM.WriteHighWater = cfg.DRAM.FrontWriteQ - 1
	}
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
// against the class-by-class scan the waiting mask replaced: the same
// classes are admitted in the same order and rrNext ends on the same
// class, also when the controller refuses a reservation mid-round.
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

		// The old scan, on counts.
		var want []mem.ClassID
		free, total := readQ-held, 0
		for _, n := range parked {
			total += n
		}
		for skipped := 0; total > 0 && skipped < mem.MaxClasses; {
			cls := rrNext
			rrNext = (rrNext + 1) % mem.MaxClasses
			if parked[cls] == 0 {
				skipped++
				continue
			}
			if free == 0 {
				refusals++
				break
			}
			free--
			parked[cls]--
			total--
			want = append(want, mem.ClassID(cls))
			skipped = 0
		}

		d.tick(uint64(round))
		if !reflect.DeepEqual(log.classes, want) || d.rrNext != rrNext || d.Parked() != total {
			t.Fatalf("round %d: admitted %v, rrNext %d, parked %d; the scan admits %v, rrNext %d, parked %d",
				round, log.classes, d.rrNext, d.Parked(), want, rrNext, total)
		}
	}
	if refusals < 100 {
		t.Fatalf("only %d rounds ended on a refused reservation", refusals)
	}
}

// TestFrontDoorFastForwardIsTheRefusalLoop pins the door's half of the
// Sleeper contract: over random waiting masks and pointers, with the
// controller's read queue full, fastForward over a span leaves rrNext
// where that many refusing ticks leave it, and the door was not due.
func TestFrontDoorFastForwardIsTheRefusalLoop(t *testing.T) {
	const readQ = 4
	sys, d := newDoorHarness(t, readQ)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 2000; round++ {
		mc, err := dram.NewController(0, sys.cfg.DRAM, func(*mem.Packet, uint64) {})
		if err != nil {
			t.Fatal(err)
		}
		for mc.TryReserveRead() {
		}
		sys.mcs[0], d.mc = mc, mc
		*d = frontDoor{mc: mc}
		for i := 1 + rng.Intn(12); i > 0; i-- {
			d.park(pkt(mem.ClassID(rng.Intn(mem.MaxClasses)), round*16+i))
		}
		d.rrNext = rng.Intn(mem.MaxClasses)
		from := uint64(rng.Intn(1000))
		to := from + uint64(rng.Intn(64))
		if next := d.nextEventAt(from); next < to {
			t.Fatalf("round %d: a door refused by a full controller is due at %d", round, next)
		}

		start, waiting := d.rrNext, d.waiting
		for now := from; now < to; now++ {
			d.tick(now)
		}
		ticked := d.rrNext
		if d.waiting != waiting || d.Parked() == 0 || mc.QueuedReads() != 0 {
			t.Fatalf("round %d: a refusing tick admitted something", round)
		}
		d.rrNext = start
		d.fastForward(from, to)
		if d.rrNext != ticked {
			t.Fatalf("round %d: mask %016b from rrNext %d over %d cycles: ticks leave %d, fastForward %d",
				round, waiting, start, to-from, ticked, d.rrNext)
		}
	}
}
