package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/sim"
)

// ckptBytes is the controller's checkpoint image: every register a
// tick can move, the queues in arrival order, and every stat.
func ckptBytes(t *testing.T, mc *Controller) []byte {
	t.Helper()
	raw, err := ckpt.Encode(ckpt.Header{}, mc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTickEqualsFastForward is the controller's half of the Sleeper
// contract, seeded: driven through read floods, write drains (both mode
// flips), Freeze and StallBank, a clone ticked cycle by cycle
// through [from, NextEventAt(from)) serves nothing and ends with the
// same checkpoint bytes as FastForward over the span — in one piece or
// split at a random cycle, as the kernel's hook barriers split it. A
// drained controller (no event) is checked over a random span instead.
func TestTickEqualsFastForward(t *testing.T) {
	type variant struct {
		name   string
		sched  ReadSched
		policy PagePolicy
		banks  int
	}
	var variants []variant
	for _, s := range []struct {
		name  string
		sched ReadSched
	}{{"fcfs", SchedFCFS}, {"edf", SchedEDF}} {
		for _, p := range []PagePolicy{ClosedPage, OpenPage} {
			for _, b := range []int{16, 128} {
				name := fmt.Sprintf("%s-%s-%dbanks", s.name, p, b)
				variants = append(variants, variant{name, s.sched, p, b})
			}
		}
	}
	for vi, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Policy, cfg.Banks = v.policy, v.banks
			served := 0
			build := func() *Controller {
				mc, err := NewController(0, cfg, func(*mem.Packet, uint64) { served++ })
				if err != nil {
					t.Fatal(err)
				}
				mc.SetReleaser(func(*mem.Packet) { served++ })
				if v.sched == SchedEDF {
					mc.SetScheduler(SchedEDF, &diffArbiter{rng: rand.New(rand.NewSource(int64(vi)))})
				}
				return mc
			}
			clone := func(mc *Controller) *Controller {
				k, err := ckpt.Decode(ckptBytes(t, mc))
				if err != nil {
					t.Fatal(err)
				}
				k.Limits = ckpt.Limits{Tiles: 1, MCs: 1, Classes: 4}
				c := build()
				if err := k.Load(c); err != nil {
					t.Fatal(err)
				}
				return c
			}

			rng := rand.New(rand.NewSource(int64(7 + vi)))
			mc := build()
			var now uint64
			var spans, slept, toWrite, toRead int
			tick := func() {
				was := mc.writeMode
				mc.Tick(now)
				now++
				switch {
				case !was && mc.writeMode:
					toWrite++
				case was && !mc.writeMode:
					toRead++
				}
			}
			for now < 150_000 {
				// A stretch of arrivals, ticked cycle by cycle. The phase
				// picks the traffic: read floods, write floods that cross
				// the high watermark, a mix, or silence.
				phase := rng.Intn(4)
				for n := rng.Intn(96); n > 0; n-- {
					if (phase == 0 || phase == 2) && rng.Intn(2) == 0 && mc.TryReserveRead() {
						line := uint64(rng.Intn(cfg.Banks*8)*cfg.RowLines) + uint64(rng.Intn(2))
						mc.ArriveRead(&mem.Packet{Addr: mem.Addr(line * mem.LineSize), Kind: mem.Read, Class: mem.ClassID(rng.Intn(4))}, now)
					}
					if (phase == 1 || phase == 2) && rng.Intn(3) == 0 && mc.TryReserveWrite() {
						line := uint64(rng.Intn(cfg.Banks*8) * cfg.RowLines)
						mc.ArriveWrite(&mem.Packet{Addr: mem.Addr(line * mem.LineSize), Kind: mem.Writeback, Class: mem.ClassID(rng.Intn(4))}, now)
					}
					tick()
				}
				switch rng.Intn(12) {
				case 0:
					mc.StallBank(rng.Intn(cfg.Banks), now+uint64(rng.Intn(600)))
				case 1:
					mc.Freeze(now + uint64(rng.Intn(300)))
				}

				// Then nothing arrives, and the controller runs as the event
				// kernel runs it: asleep until NextEventAt, ticked there. A
				// drain ends with the controller idle in the mode it drained
				// in, for a random span.
				for n := rng.Intn(32); n > 0; n-- {
					from := now
					to := mc.NextEventAt(from)
					if to < from {
						t.Fatalf("cycle %d: NextEventAt %d is in the past", from, to)
					}
					idle := to == sim.NoEvent
					if idle {
						to = from + uint64(rng.Intn(6000))
					}
					ticked := clone(mc)
					before := served
					for c := from; c < to; c++ {
						ticked.Tick(c)
					}
					if served != before {
						t.Fatalf("cycles [%d, %d): the controller slept through %d services", from, to, served-before)
					}
					split := from + uint64(rng.Int63n(int64(to-from)+1))
					mc.FastForward(from, split)
					mc.FastForward(split, to)
					if !bytes.Equal(ckptBytes(t, ticked), ckptBytes(t, mc)) {
						t.Fatalf("cycles [%d, %d) split at %d: FastForward left different state than ticking", from, to, split)
					}
					spans++
					if to > from {
						slept++
					}
					now = to
					if idle {
						break
					}
					tick()
				}
			}
			if slept < spans/2 || toWrite < 20 || toRead < 20 {
				t.Fatalf("weak drive: %d of %d spans slept, %d/%d mode flips", slept, spans, toWrite, toRead)
			}
			t.Logf("%d of %d spans slept, %d/%d mode flips", slept, spans, toWrite, toRead)
		})
	}
}
