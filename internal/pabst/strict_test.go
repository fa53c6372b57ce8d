package pabst

import (
	"testing"

	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/qos"
)

// strictArbiter is the reference the priority arbiter is compared
// against: it stamps every request with a constant deadline equal to its
// class stride, so an EDF pick degenerates into strict priority by
// weight (ties broken by arrival order). Strict priority has no
// virtual-time accounting, so a backlogged high-weight class starves
// everyone below it — the classic failure the fair-queueing lineage
// (and PABST's arbiter) exists to avoid.
type strictArbiter struct {
	reg *qos.Registry
}

func (a *strictArbiter) OnAccept(pkt *mem.Packet, now uint64) {
	pkt.Deadline = a.reg.Stride(pkt.Class)
}

func (a *strictArbiter) OnPick(pkt *mem.Packet, now uint64) {}

// driveArbiter floods a controller with both classes under the given
// arbiter and returns per-class service counts.
func driveArbiter(t *testing.T, arb dram.Arbiter) (hiServed, loServed int) {
	t.Helper()
	cfg := dram.Config{
		Timing:      dram.DDR4(),
		Policy:      dram.ClosedPage,
		Banks:       16,
		RowLines:    128,
		FrontReadQ:  32,
		FrontWriteQ: 32,
	}
	// Closed-loop sources: each class sustains at most 24 outstanding
	// requests (MSHR-style), replenishing on completion. Starvation then
	// shows as throughput collapse — the starved class's credits pin its
	// unserved requests in the queue.
	var served [2]int
	var outstanding [2]int
	mc, err := dram.NewController(0, cfg, func(pkt *mem.Packet, doneAt uint64) {
		served[pkt.Class]++
		outstanding[pkt.Class]--
	})
	if err != nil {
		t.Fatal(err)
	}
	mc.SetScheduler(dram.SchedEDF, arb)
	const window = 24
	seq := 0
	for now := uint64(0); now < 40_000; now++ {
		for cls := mem.ClassID(0); cls < 2; cls++ {
			for outstanding[cls] < window && mc.TryReserveRead() {
				p := &mem.Packet{
					Addr:  mem.Addr((uint64(seq)*2654435761 + uint64(cls)) << 6),
					Kind:  mem.Read,
					Class: cls,
				}
				seq++
				outstanding[cls]++
				mc.ArriveRead(p, now)
			}
		}
		mc.Tick(now)
	}
	return served[0], served[1]
}

// TestStrictArbiterStarvesLowClass demonstrates the failure mode PABST's
// fair EDF avoids: under strict priority, a backlogged high class takes
// essentially all service.
func TestStrictArbiterStarvesLowClass(t *testing.T) {
	reg := qos.NewRegistry()
	reg.MustAdd("hi", 3, 4) // stride 1 -> earlier constant deadline
	reg.MustAdd("lo", 1, 4) // stride 3

	hi, lo := driveArbiter(t, &strictArbiter{reg: reg})
	if hi+lo == 0 {
		t.Fatal("nothing served")
	}
	if float64(lo) > 0.55*float64(hi) {
		t.Fatalf("strict priority served hi %d vs lo %d: expected starvation", hi, lo)
	}

	// The PABST arbiter on the same mix delivers the 3:1 proportion.
	hiF, loF := driveArbiter(t, NewArbiter(reg, 128))
	ratio := float64(hiF) / float64(loF)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("fair arbiter ratio %.2f, want ~3.0 (hi %d, lo %d)", ratio, hiF, loF)
	}
	// And the low class is much better off than under strict priority.
	if loF <= lo {
		t.Fatalf("fair arbiter should serve the low class more: %d vs %d", loF, lo)
	}
}
