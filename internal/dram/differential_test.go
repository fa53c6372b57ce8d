package dram

import (
	"math/rand"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// This file pins the ordering equivalence between the indexed scheduler
// (sched.go) and the O(n) scans it replaced: RefController (reference_test.go)
// carries the old scan code verbatim and runs in lockstep with the real
// controller over randomized workloads; every service decision — packet
// identity, service order, timing, and stats — must match for a million
// cycles across scheduler × page-policy × bank-count variants. Along
// the way the real controller is checkpointed and restored in place, and
// after every step the occupied-bank bitmap the picks walk must mark
// exactly the banks whose heap holds a read.

// served records one completed transaction for comparison. Packet
// pointers differ between the controllers, so identity is compared by
// value: a per-arrival tag is smuggled in the Issue field (unused by
// the controller datapath).
type served struct {
	tag    uint64
	doneAt uint64
	read   bool
}

// diffArbiter stamps deterministic pseudo-random deadlines, coarsened to
// provoke ties so the tie-break path is exercised.
type diffArbiter struct{ rng *rand.Rand }

func (a *diffArbiter) OnAccept(pkt *mem.Packet, now uint64) {
	pkt.Deadline = now + uint64(a.rng.Intn(128))*16
}
func (a *diffArbiter) OnPick(pkt *mem.Packet, now uint64) {}

// checkOccupied requires bit b of the front end's bitmap to be set iff
// bank b's heap is non-empty, and returns the highest occupied bank.
func checkOccupied(t *testing.T, mc *Controller, when string, now uint64) int {
	t.Helper()
	f := mc.fe
	if len(f.occupied) != (len(f.banks)+63)/64 {
		t.Fatalf("%d bitmap words for %d banks", len(f.occupied), len(f.banks))
	}
	high := -1
	for b := range f.banks {
		bit := f.occupied[b>>6]>>(b&63)&1 != 0
		if has := len(f.banks[b].items) > 0; bit != has {
			t.Fatalf("cycle %d, %s: bank %d occupied bit %v, heap holds %d reads", now, when, b, bit, len(f.banks[b].items))
		} else if has {
			high = b
		}
	}
	return high
}

// restoreInPlace checkpoints the controller and restores it from those
// bytes, which rebuilds the scheduling index from the linearized queues.
func restoreInPlace(t *testing.T, mc *Controller) {
	t.Helper()
	raw, err := ckpt.Encode(ckpt.Header{}, mc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ckpt.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	k.Limits = ckpt.Limits{Tiles: 1, MCs: 1, Classes: 4} // what the test's packets carry
	if err := k.Load(mc); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSchedulerEquivalence drives the indexed controller and
// the reference scan controller with identical randomized arrival,
// stall, and freeze streams and requires identical service sequences.
func TestDifferentialSchedulerEquivalence(t *testing.T) {
	type variant struct {
		name   string
		sched  ReadSched
		policy PagePolicy
		banks  int
	}
	variants := []variant{
		{"edf-open-single", SchedEDF, OpenPage, 16},
		{"edf-closed-single", SchedEDF, ClosedPage, 16},
		{"fcfs-open-single", SchedFCFS, OpenPage, 16},
		{"fcfs-closed-single", SchedFCFS, ClosedPage, 16},
		// More banks than one bitmap word holds; the open-page one keeps
		// the open-row pick covered there too.
		{"edf-closed-single-128banks", SchedEDF, ClosedPage, 128},
		{"edf-open-single-128banks", SchedEDF, OpenPage, 128},
	}
	const cyclesPerVariant = 180_000 // x6 variants > 1M compared cycles
	for vi, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Policy = v.policy
			cfg.Banks = v.banks

			var gotNew, gotRef []served
			mc, err := NewController(0, cfg, func(p *mem.Packet, doneAt uint64) {
				gotNew = append(gotNew, served{p.Issue, doneAt, true})
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := NewRefController(cfg, func(p *mem.Packet, doneAt uint64) {
				gotRef = append(gotRef, served{p.Issue, doneAt, true})
			})
			ref.SetOnWrite(func(p *mem.Packet) {
				gotRef = append(gotRef, served{p.Issue, 0, false})
			})
			arbNew := &diffArbiter{rng: rand.New(rand.NewSource(int64(vi)))}
			arbRef := &diffArbiter{rng: rand.New(rand.NewSource(int64(vi)))}
			if v.sched == SchedEDF {
				mc.SetScheduler(SchedEDF, arbNew)
				ref.SetScheduler(SchedEDF, arbRef)
			}
			mc.SetReleaser(func(p *mem.Packet) {
				gotNew = append(gotNew, served{p.Issue, 0, false})
			})

			rng := rand.New(rand.NewSource(42 + int64(vi)))
			var tag uint64
			highBank := -1
			for now := uint64(0); now < cyclesPerVariant; now++ {
				// Random read arrivals, bursty to sweep queue depths.
				burst := rng.Intn(4)
				for i := 0; i < burst; i++ {
					if !mc.TryReserveRead() {
						break
					}
					// Few distinct rows per bank to provoke row hits
					// and conflicts.
					line := uint64(rng.Intn(cfg.Banks*8)*cfg.RowLines) + uint64(rng.Intn(2))
					tag++
					pn := &mem.Packet{Addr: mem.Addr(line * mem.LineSize), Kind: mem.Read,
						Class: mem.ClassID(rng.Intn(4)), Issue: tag}
					pr := *pn
					mc.ArriveRead(pn, now)
					ref.ArriveRead(&pr, now)
				}
				if rng.Intn(5) == 0 && mc.TryReserveWrite() {
					line := uint64(rng.Intn(cfg.Banks*8) * cfg.RowLines)
					tag++
					pn := &mem.Packet{Addr: mem.Addr(line * mem.LineSize), Kind: mem.Writeback,
						Class: mem.ClassID(rng.Intn(4)), Issue: tag}
					pr := *pn
					mc.ArriveWrite(pn, now)
					ref.ArriveWrite(&pr, now)
				}
				if rng.Intn(4096) == 0 {
					b := rng.Intn(cfg.Banks)
					until := now + uint64(rng.Intn(400))
					mc.StallBank(b, until)
					if until > ref.banks[b].readyAt {
						ref.banks[b].readyAt = until
					}
				}
				if rng.Intn(16384) == 0 {
					until := now + uint64(rng.Intn(200))
					mc.Freeze(until)
					if until > ref.frozenUntil {
						ref.frozenUntil = until
					}
				}
				mc.Tick(now)
				ref.Tick(now)
				if h := checkOccupied(t, mc, "after Tick", now); h > highBank {
					highBank = h
				}
				if now%20_011 == 20_010 {
					restoreInPlace(t, mc)
					checkOccupied(t, mc, "after restore", now)
				}

				if mc.QueuedReads() != ref.QueuedReads() || mc.QueuedWrites() != ref.QueuedWrites() {
					t.Fatalf("cycle %d: queue depth divergence: reads %d vs %d, writes %d vs %d",
						now, mc.QueuedReads(), ref.QueuedReads(), mc.QueuedWrites(), ref.QueuedWrites())
				}
			}

			if highBank < v.banks/2 {
				t.Fatalf("highest bank ever occupied is %d of %d", highBank, v.banks)
			}

			// Every service decision must match one-for-one in order,
			// identity, and timing. The controller issues at most one
			// access per cycle, so the interleaved read/write stream is
			// totally ordered on both sides.
			if len(gotNew) != len(gotRef) {
				t.Fatalf("service count divergence: new %d, ref %d", len(gotNew), len(gotRef))
			}
			for i := range gotNew {
				if gotNew[i] != gotRef[i] {
					t.Fatalf("service %d diverged: new %+v, ref %+v", i, gotNew[i], gotRef[i])
				}
			}

			if mc.Stats.ReadsServed != ref.Stats.ReadsServed ||
				mc.Stats.WritesServed != ref.Stats.WritesServed ||
				mc.Stats.RowHits != ref.Stats.RowHits ||
				mc.Stats.PriorityInversions != ref.Stats.PriorityInversions {
				t.Fatalf("stats divergence:\nnew %+v\nref %+v", mc.Stats, ref.Stats)
			}
		})
	}
}
