package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/sim"
	"pabst/internal/workload"
)

// seededGen is a reproducible op stream over a few dozen lines, so
// misses coalesce: short gaps with an occasional long one, and every
// third op depending on its predecessor (distance 1 keeps each
// producer's waiter unique).
type seededGen struct{ rng *rand.Rand }

func (g *seededGen) Name() string { return "seeded" }
func (g *seededGen) Next(op *workload.Op) {
	gap := g.rng.Intn(8)
	if g.rng.Intn(16) == 0 {
		gap = 100 + g.rng.Intn(200)
	}
	dep := 0
	if g.rng.Intn(3) == 0 {
		dep = 1
	}
	*op = workload.Op{
		Addr:      mem.Addr(g.rng.Intn(48) * mem.LineSize),
		Write:     g.rng.Intn(4) == 0,
		DependsOn: dep,
		Gap:       gap,
		Insts:     uint64(gap) + 1,
	}
}

// capPort is a seeded, capacity-bounded port in the tile's image. A miss
// holds one of cap entries until its drawn return cycle, and a miss to a
// line already in flight joins that entry, so every entry is born with
// the op that allocated it waiting. A would-be miss with every entry
// taken is refused before anything moves, with no draw, so a retry is a
// pure probe. Whether an
// access hits depends on its address alone, so two ports fed the same
// accepted accesses stay identical however often either is probed.
type capPort struct {
	rng     *rand.Rand
	core    *Core
	cap     int
	entries []capEntry // allocation order
}

type capEntry struct {
	line    mem.Addr
	freeAt  uint64
	waiters []uint64
}

func (p *capPort) find(line mem.Addr) int {
	for i := range p.entries {
		if p.entries[i].line == line {
			return i
		}
	}
	return -1
}

func (p *capPort) Access(addr mem.Addr, write bool, now uint64, token uint64) (AccessStatus, uint64) {
	line := addr.Line()
	if i := p.find(line); i >= 0 {
		p.entries[i].waiters = append(p.entries[i].waiters, token)
		return AccessPending, 0
	}
	if n := uint64(line) / mem.LineSize; n%4 == 0 {
		return AccessDone, now + 1 + n%7
	}
	if len(p.entries) >= p.cap {
		return AccessBlocked, 0
	}
	p.entries = append(p.entries, capEntry{
		line: line, freeAt: now + 1 + uint64(p.rng.Intn(300)), waiters: []uint64{token},
	})
	return AccessPending, 0
}

// respond frees the entries due at now, completing the ops waiting on
// them — the tile's inbox drain. It reports how many entries it freed.
func (p *capPort) respond(now uint64) (freed int) {
	keep := p.entries[:0]
	for _, e := range p.entries {
		if e.freeAt > now {
			keep = append(keep, e)
			continue
		}
		freed++
		for _, tok := range e.waiters {
			p.core.CompleteMiss(tok, now)
		}
	}
	p.entries = keep
	return freed
}

// nextFree is the cycle the earliest entry frees, the inbox's event.
func (p *capPort) nextFree() uint64 {
	next := sim.NoEvent
	for _, e := range p.entries {
		next = min(next, e.freeAt)
	}
	return next
}

// TestCoreTickEqualsFastForward is the core's half of the Sleeper
// contract, seeded. One core is ticked every cycle, as the reference loop
// ticks it. A twin with the same op stream and port draws runs as the
// event kernel runs a tile: asleep until the earlier of its NextEventAt
// and the port's next response, with FastForward over the span, in one
// piece or split at a random cycle as hook barriers split it. Some spans
// end early in a spurious visit, a Tick at a cycle with no event, as a
// tile woken for its pacer or by a stale wake ticks its core. The two
// cores' checkpoint bytes must match at every sync point.
func TestCoreTickEqualsFastForward(t *testing.T) {
	for vi, v := range []struct {
		cfg Config
		cap int
	}{
		{Config{WindowOps: 16, IssueWidth: 2}, 4},
		{Config{WindowOps: 32, IssueWidth: 4}, 3},
		{Config{WindowOps: 8, IssueWidth: 1}, 3},
	} {
		t.Run(fmt.Sprintf("window%d-width%d-cap%d", v.cfg.WindowOps, v.cfg.IssueWidth, v.cap), func(t *testing.T) {
			build := func() (*Core, *capPort) {
				port := &capPort{rng: rand.New(rand.NewSource(int64(vi))), cap: v.cap}
				c, err := New(0, v.cfg, &seededGen{rand.New(rand.NewSource(int64(100 + vi)))}, port)
				if err != nil {
					t.Fatal(err)
				}
				port.core = c
				return c, port
			}
			image := func(c *Core) []byte {
				raw, err := ckpt.Encode(ckpt.Header{}, c)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			ticked, tickedPort := build()
			slept, sleptPort := build()
			var tickedTo uint64 // the ticked core has run every cycle before this
			sync := func(at uint64, what string) {
				for ; tickedTo < at; tickedTo++ {
					tickedPort.respond(tickedTo)
					ticked.Tick(tickedTo)
				}
				if !bytes.Equal(image(ticked), image(slept)) {
					t.Fatalf("cycle %d, %s: the slept core's state differs from the ticked core's", at, what)
				}
			}
			// visit runs the slept core at cycle now as Tile.tick does:
			// the inbox drains, then the core ticks.
			visit := func(now uint64) int {
				freed := sleptPort.respond(now)
				slept.Tick(now)
				return freed
			}

			const end = 100_000
			rng := rand.New(rand.NewSource(int64(7 + vi)))
			var spans, replayed, blockedFrees int
			for now := uint64(0); now < end; {
				from := now
				to := min(slept.NextEventAt(from), sleptPort.nextFree(), end)
				if to < from {
					t.Fatalf("cycle %d: next event %d is in the past", from, to)
				}
				blocked, tail, ready := slept.mshrBlocked, slept.tail, slept.readyQ.Len()
				split := from + uint64(rng.Int63n(int64(to-from)+1))
				slept.FastForward(from, split)
				sync(split, fmt.Sprintf("span [%d, %d) cut at %d", from, to, split))
				if split < to && rng.Intn(4) == 0 {
					visit(split)
					sync(split+1, fmt.Sprintf("spurious visit at %d", split))
					now = split + 1
					continue
				}
				slept.FastForward(split, to)
				sync(to, fmt.Sprintf("span [%d, %d)", from, to))
				spans++
				if blocked && (slept.tail != tail || slept.readyQ.Len() != ready) {
					replayed++
				}
				if to == end {
					break
				}
				wasBlocked := slept.mshrBlocked
				if freed := visit(to); freed > 0 && wasBlocked {
					blockedFrees++
				}
				sync(to+1, fmt.Sprintf("event at %d", to))
				now = to + 1
			}
			if replayed < 100 || blockedFrees < 100 || ticked.OpsRetired() < 1000 {
				t.Fatalf("weak drive: %d of %d spans replayed blocked bookkeeping, %d frees reached an MSHR-blocked core, %d ops retired",
					replayed, spans, blockedFrees, ticked.OpsRetired())
			}
			t.Logf("%d of %d spans replayed blocked bookkeeping, %d frees reached an MSHR-blocked core, %d ops retired",
				replayed, spans, blockedFrees, ticked.OpsRetired())
		})
	}
}
