package cpu

import (
	"errors"
	"testing"
	"unsafe"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/workload"
)

// scriptGen yields a fixed cyclic list of ops.
type scriptGen struct {
	ops []workload.Op
	i   int
}

func (g *scriptGen) Name() string { return "script" }
func (g *scriptGen) Next(op *workload.Op) {
	*op = g.ops[g.i%len(g.ops)]
	g.i++
}

// fakePort completes every access as a hit after a fixed latency, or
// holds misses for manual completion.
type fakePort struct {
	hitLat    uint64
	missEvery int // every n-th access becomes a pending miss (0 = never)
	blocked   bool

	accesses int
	pending  []uint64 // tokens of pending misses
	core     *Core
}

func (p *fakePort) Access(addr mem.Addr, write bool, now uint64, token uint64) (AccessStatus, uint64) {
	if p.blocked {
		return AccessBlocked, 0
	}
	p.accesses++
	if p.missEvery > 0 && p.accesses%p.missEvery == 0 {
		p.pending = append(p.pending, token)
		return AccessPending, 0
	}
	return AccessDone, now + p.hitLat
}

func newCore(t *testing.T, gen workload.Generator, port *fakePort, cfg Config) *Core {
	t.Helper()
	c, err := New(0, cfg, gen, port)
	if err != nil {
		t.Fatal(err)
	}
	if port != nil {
		port.core = c
	}
	return c
}

func run(c *Core, from, to uint64) {
	for now := from; now < to; now++ {
		c.Tick(now)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{WindowOps: 0, IssueWidth: 1}).Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
	if err := (Config{WindowOps: 8, IssueWidth: 0}).Validate(); err == nil {
		t.Fatal("zero issue width accepted")
	}
	if _, err := New(0, Config{WindowOps: 8, IssueWidth: 1}, nil, &fakePort{}); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestIndependentOpsPipelineThroughput(t *testing.T) {
	// Independent ops with gap 1 and a 10-cycle hit latency: throughput
	// must be limited by issue width (1/cycle-ish), not latency.
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 1, Insts: 2}}}
	port := &fakePort{hitLat: 10}
	c := newCore(t, gen, port, Config{WindowOps: 16, IssueWidth: 1})
	run(c, 0, 1000)
	if c.OpsRetired() < 800 {
		t.Fatalf("retired %d ops in 1000 cycles; independent ops should pipeline", c.OpsRetired())
	}
	if got := c.IPC(); got < 1.5 {
		t.Fatalf("IPC = %g, want ~2 (2 insts per op at ~1 op/cycle)", got)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A strict chain with 20-cycle hits: one op per ~20 cycles.
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, DependsOn: 1, Gap: 0, Insts: 1}}}
	port := &fakePort{hitLat: 20}
	c := newCore(t, gen, port, Config{WindowOps: 16, IssueWidth: 1})
	run(c, 0, 2000)
	got := c.OpsRetired()
	if got < 80 || got > 110 {
		t.Fatalf("retired %d ops in 2000 cycles, want ~100 for a 20-cycle chain", got)
	}
}

func TestChainCountSetsMLP(t *testing.T) {
	// Four interleaved chains (DependsOn=4): ~4 ops per latency.
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, DependsOn: 4, Gap: 0, Insts: 1}}}
	port := &fakePort{hitLat: 20}
	c := newCore(t, gen, port, Config{WindowOps: 16, IssueWidth: 4})
	run(c, 0, 2000)
	got := c.OpsRetired()
	if got < 320 || got > 440 {
		t.Fatalf("retired %d ops, want ~400 (4 chains x 100 serial steps)", got)
	}
}

func TestGapThrottlesIssueRate(t *testing.T) {
	// Independent ops with a 10-cycle gap: ~1 op per 10 cycles even with
	// zero memory latency.
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 10, Insts: 11}}}
	port := &fakePort{hitLat: 1}
	c := newCore(t, gen, port, Config{WindowOps: 16, IssueWidth: 1})
	run(c, 0, 1000)
	got := c.OpsRetired()
	if got < 85 || got > 110 {
		t.Fatalf("retired %d ops in 1000 cycles at gap 10, want ~100", got)
	}
	// IPC ~ 11 insts / 10 cycles ~ 1.1.
	if ipc := c.IPC(); ipc < 0.9 || ipc > 1.2 {
		t.Fatalf("IPC = %g, want ~1.1", ipc)
	}
}

func TestBlockedPortRetries(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 0, Insts: 1}}}
	port := &fakePort{hitLat: 1, blocked: true}
	c := newCore(t, gen, port, Config{WindowOps: 4, IssueWidth: 1})
	run(c, 0, 100)
	if c.OpsRetired() != 0 {
		t.Fatal("ops retired through a blocked port")
	}
	port.blocked = false
	run(c, 100, 200)
	if c.OpsRetired() == 0 {
		t.Fatal("core did not recover after port unblocked")
	}
}

func TestPendingMissCompletion(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 0, Insts: 1}}}
	port := &fakePort{hitLat: 5, missEvery: 1} // every access misses
	c := newCore(t, gen, port, Config{WindowOps: 4, IssueWidth: 1})
	run(c, 0, 10)
	if c.OpsRetired() != 0 {
		t.Fatal("miss retired without CompleteMiss")
	}
	if len(port.pending) == 0 {
		t.Fatal("no pending misses recorded")
	}
	// Complete them all.
	for _, tok := range port.pending {
		c.CompleteMiss(tok, 10)
	}
	port.pending = nil
	run(c, 10, 20)
	if c.OpsRetired() == 0 {
		t.Fatal("completed misses did not retire")
	}
}

func TestOutstandingBoundedByWindow(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 0, Insts: 1}}}
	port := &fakePort{missEvery: 1}
	c := newCore(t, gen, port, Config{WindowOps: 8, IssueWidth: 8})
	run(c, 0, 100)
	if c.Outstanding() > 8 {
		t.Fatalf("outstanding %d exceeds window 8", c.Outstanding())
	}
	if c.Outstanding() != 8 {
		t.Fatalf("outstanding %d, want window-full 8", c.Outstanding())
	}
}

func TestResetStats(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 1, Insts: 3}}}
	port := &fakePort{hitLat: 2}
	c := newCore(t, gen, port, Config{WindowOps: 8, IssueWidth: 1})
	run(c, 0, 500)
	warm := c.InstsRetired()
	if warm == 0 {
		t.Fatal("no progress in warmup")
	}
	c.ResetStats()
	if c.InstsRetired() != 0 || c.Cycles() != 0 {
		t.Fatal("ResetStats did not zero the window")
	}
	run(c, 500, 1000)
	if c.InstsRetired() == 0 {
		t.Fatal("no progress after reset")
	}
}

func TestCompleteMissBadTokenPanics(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Addr: 0, Gap: 0, Insts: 1}}}
	port := &fakePort{hitLat: 1}
	c := newCore(t, gen, port, Config{WindowOps: 4, IssueWidth: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad token accepted")
		}
	}()
	c.CompleteMiss(3, 0)
}

func TestTaggedOpObservers(t *testing.T) {
	// memcached-style generator with observers, driven through the core.
	m, err := NewObservedGen()
	if err != nil {
		t.Fatal(err)
	}
	port := &fakePort{hitLat: 7}
	c := newCore(t, m, port, Config{WindowOps: 8, IssueWidth: 1})
	run(c, 0, 2000)
	if m.issues == 0 || m.completes == 0 {
		t.Fatalf("observers not called: %d issues, %d completes", m.issues, m.completes)
	}
	if m.completes > m.issues {
		t.Fatal("more completions than issues")
	}
}

// observedGen tags every op and counts observer callbacks.
type observedGen struct {
	n         uint64
	issues    int
	completes int
}

func NewObservedGen() (*observedGen, error) { return &observedGen{}, nil }

func (g *observedGen) Name() string { return "observed" }
func (g *observedGen) Next(op *workload.Op) {
	g.n++
	*op = workload.Op{Addr: mem.Addr(g.n * 64), Gap: 1, Insts: 1, Tag: g.n}
}
func (g *observedGen) OnIssue(now, tag uint64)    { g.issues++ }
func (g *observedGen) OnComplete(now, tag uint64) { g.completes++ }

// TestSlotSize pins the window slot at 88 B: the two one-byte fields sit
// together after the words, so the ring carries no padding word per op.
// The checkpoint walks the fields by name, so their order is free.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 88 {
		t.Fatalf("slot is %d B, want 88", got)
	}
}

// TestRestoreRejectsForeignWindow: a core image whose window [head,
// tail) runs backwards, is wider than the slot ring, or holds a slot of
// another op is ErrCorrupt. At the parent of this test each loaded; the
// first two restored a core whose next Tick retired for up to 2^64 ops
// (a FuzzRestore hang).
func TestRestoreRejectsForeignWindow(t *testing.T) {
	build := func() *Core {
		gen := &scriptGen{ops: []workload.Op{{Addr: 64, Gap: 1}}}
		return newCore(t, gen, &fakePort{hitLat: 3, missEvery: 4}, Config{WindowOps: 8, IssueWidth: 2})
	}
	for name, poke := range map[string]func(c *Core){
		"unchanged":           func(*Core) {},
		"backwards":           func(c *Core) { c.tail = c.head - 1 },
		"wider than the ring": func(c *Core) { c.tail = c.head + 9 },
		"foreign slot":        func(c *Core) { c.slotAt(c.head).seq += 8 },
	} {
		src := build()
		run(src, 0, 100)
		if src.head == src.tail {
			t.Fatal("the window drained; the test needs ops in flight")
		}
		poke(src)
		raw, err := ckpt.Encode(ckpt.Header{}, src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		err = dec.Load(build())
		if want := name != "unchanged"; errors.Is(err, ckpt.ErrCorrupt) != want {
			t.Errorf("%s: got %v, want ErrCorrupt %v", name, err, want)
		}
	}
}
