package workload

import (
	"testing"

	"pabst/internal/mem"
)

func region(base, size uint64) Region { return Region{Base: mem.Addr(base), Size: size} }

func TestStreamStrideAndWrap(t *testing.T) {
	s := NewStream("s", region(0x1000, 1024), 128, false)
	var op Op
	var addrs []mem.Addr
	for i := 0; i < 10; i++ {
		s.Next(&op)
		addrs = append(addrs, op.Addr)
		if op.Write || op.DependsOn != 0 {
			t.Fatal("read stream op has wrong flags")
		}
	}
	if addrs[1]-addrs[0] != 128 {
		t.Fatalf("stride = %d, want 128", addrs[1]-addrs[0])
	}
	if addrs[8] != addrs[0] { // 1024/128 = 8 accesses per lap
		t.Fatalf("stream did not wrap: %v", addrs)
	}
}

func TestStreamWriteFlag(t *testing.T) {
	s := NewStream("w", region(0, 4096), 128, true)
	var op Op
	s.Next(&op)
	if !op.Write {
		t.Fatal("write stream produced a read")
	}
}

func TestStreamLineAligned(t *testing.T) {
	s := NewStream("s", region(0x40000, 8192), 128, false)
	var op Op
	for i := 0; i < 100; i++ {
		s.Next(&op)
		if op.Addr != op.Addr.Line() {
			t.Fatalf("unaligned address %#x", uint64(op.Addr))
		}
	}
}

func TestChaserDependencies(t *testing.T) {
	c := NewChaser("c", region(0, 1<<20), 4, 7)
	var op Op
	for i := 0; i < 50; i++ {
		c.Next(&op)
		if op.DependsOn != 4 {
			t.Fatalf("chaser DependsOn = %d, want chain count 4", op.DependsOn)
		}
		if uint64(op.Addr) >= 1<<20 {
			t.Fatalf("address %#x outside region", uint64(op.Addr))
		}
	}
}

func TestChaserDeterministic(t *testing.T) {
	a := NewChaser("a", region(0, 1<<20), 4, 42)
	b := NewChaser("b", region(0, 1<<20), 4, 42)
	var oa, ob Op
	for i := 0; i < 100; i++ {
		a.Next(&oa)
		b.Next(&ob)
		if oa.Addr != ob.Addr {
			t.Fatal("same-seed chasers diverged")
		}
	}
}

func TestPeriodicStreamPhases(t *testing.T) {
	ddr := region(0, 1<<20)
	cached := region(1<<30, 4096)
	p := NewPeriodicStream("p", ddr, cached, 1000, 1000)
	var op Op
	// Time 0: DDR phase.
	if !p.InDDRPhase() {
		t.Fatal("should start in DDR phase")
	}
	p.Next(&op)
	if uint64(op.Addr) >= 1<<20 {
		t.Fatalf("DDR-phase op outside DDR region: %#x", uint64(op.Addr))
	}
	if op.Tag == 0 {
		t.Fatal("periodic ops must be tagged so OnIssue ticks the clock")
	}
	// Advance the clock into the cached phase.
	p.OnIssue(1500, 1)
	if p.InDDRPhase() {
		t.Fatal("should be in cached phase at t=1500")
	}
	p.Next(&op)
	if uint64(op.Addr) < 1<<30 {
		t.Fatalf("cached-phase op outside cached region: %#x", uint64(op.Addr))
	}
	// Full period later: DDR again.
	p.OnIssue(2100, 1)
	if !p.InDDRPhase() {
		t.Fatal("did not return to DDR phase at t=2100")
	}
	// The clock never runs backwards.
	p.OnIssue(100, 1)
	if !p.InDDRPhase() {
		t.Fatal("stale OnIssue rewound the phase clock")
	}
}

func TestSpecSuiteComplete(t *testing.T) {
	want := []string{"GemsFDTD", "lbm", "libquantum", "mcf", "milc", "omnetpp", "soplex", "sphinx3"}
	suite := SpecSuite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(suite), len(want))
	}
	for i, name := range want {
		if suite[i].Name != name {
			t.Fatalf("suite[%d] = %s, want %s", i, suite[i].Name, name)
		}
		if err := suite[i].Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
	if _, ok := SpecByName("mcf"); !ok {
		t.Fatal("SpecByName(mcf) failed")
	}
	if _, ok := SpecByName("nonesuch"); ok {
		t.Fatal("SpecByName accepted unknown name")
	}
}

func TestSpecProxyRespectsRegion(t *testing.T) {
	p, _ := SpecByName("mcf")
	r := region(1<<32, 128*(1<<20))
	s, err := NewSpec(p, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	deps, writes := 0, 0
	for i := 0; i < 5000; i++ {
		s.Next(&op)
		if uint64(op.Addr) < 1<<32 || uint64(op.Addr) >= 1<<32+r.Size {
			t.Fatalf("address %#x outside region", uint64(op.Addr))
		}
		if op.DependsOn == 1 {
			deps++
		}
		if op.Write {
			writes++
		}
	}
	// mcf: DepFrac 0.55, WriteFrac 0.20 — loose statistical bounds.
	if deps < 2300 || deps > 3200 {
		t.Fatalf("mcf dependent ops = %d/5000, want ~2750", deps)
	}
	if writes < 700 || writes > 1400 {
		t.Fatalf("mcf writes = %d/5000, want ~1000", writes)
	}
}

func TestSpecRegionTooSmall(t *testing.T) {
	p, _ := SpecByName("lbm")
	if _, err := NewSpec(p, region(0, 1024), 1); err == nil {
		t.Fatal("undersized region accepted")
	}
}

func TestSpecLatencySensitiveVsBandwidthLimited(t *testing.T) {
	// The calibration contract behind Figures 10/12: libquantum must be
	// far less dependent than sphinx3 and more memory-intense.
	lq, _ := SpecByName("libquantum")
	sp, _ := SpecByName("sphinx3")
	if lq.DepFrac >= sp.DepFrac {
		t.Fatal("libquantum should be less dependent than sphinx3")
	}
	if lq.Gap >= sp.Gap {
		t.Fatal("libquantum should be more memory-intense than sphinx3")
	}
	mcf, _ := SpecByName("mcf")
	if mcf.SeqFrac > 0.2 {
		t.Fatal("mcf must be scheduling-hostile (random)")
	}
}

func TestMemcachedTransactionShape(t *testing.T) {
	p := DefaultMemcachedParams()
	m, err := NewMemcached(p, region(0, 1<<22), 3)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.ChaseOps + p.CopyOps
	var op Op
	for txn := 0; txn < 3; txn++ {
		for i := 0; i < ops; i++ {
			m.Next(&op)
			switch {
			case i == 0:
				if op.Gap != p.ThinkGap {
					t.Fatalf("txn first op gap = %d, want think %d", op.Gap, p.ThinkGap)
				}
				if op.Tag == 0 || op.Tag%2 != 1 {
					t.Fatalf("txn first op tag = %d, want odd start marker", op.Tag)
				}
			case i < p.ChaseOps:
				if op.DependsOn != 1 || op.Write {
					t.Fatalf("chase op %d wrong: %+v", i, op)
				}
			default:
				if !op.Write {
					t.Fatalf("copy op %d not a store", i)
				}
			}
			if i == ops-1 && (op.Tag == 0 || op.Tag%2 != 0) {
				t.Fatalf("txn last op tag = %d, want even end marker", op.Tag)
			}
		}
	}
}

func TestMemcachedServiceTimes(t *testing.T) {
	m, err := NewMemcached(DefaultMemcachedParams(), region(0, 1<<22), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate issue/complete events for 10 transactions.
	for txn := uint64(0); txn < 10; txn++ {
		start := txn * 1000
		m.OnIssue(start, txn*2+1)
		m.OnComplete(start+500, txn*2+2)
	}
	if m.Transactions() != 10 {
		t.Fatalf("Transactions = %d", m.Transactions())
	}
	if m.ServiceTimes().Mean() != 500 {
		t.Fatalf("mean service = %g, want 500", m.ServiceTimes().Mean())
	}
	m.ResetStats()
	if m.Transactions() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestMemcachedValidation(t *testing.T) {
	p := DefaultMemcachedParams()
	p.ChaseOps = 0
	if _, err := NewMemcached(p, region(0, 1<<20), 1); err == nil {
		t.Fatal("zero chase ops accepted")
	}
	if _, err := NewMemcached(DefaultMemcachedParams(), region(0, 0), 1); err == nil {
		t.Fatal("empty region accepted")
	}
}

func TestRegionLineAt(t *testing.T) {
	r := region(0x1000, 256)
	if r.Lines() != 4 {
		t.Fatalf("Lines = %d", r.Lines())
	}
	if r.LineAt(5) != r.LineAt(1) {
		t.Fatal("LineAt does not wrap modulo region size")
	}
	if r.LineAt(0) != 0x1000 {
		t.Fatalf("LineAt(0) = %#x", uint64(r.LineAt(0)))
	}
}

func TestStreamPanicsOnTinyRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny region accepted")
		}
	}()
	NewStream("s", region(0, 64), 128, false)
}

// TestFromBuildSpecRefusesWhatPanics: a recipe comes from a checkpoint
// image, so every argument a constructor panics on, or a generator
// divides by, is an error and no generator. Before FromBuildSpec checked
// them, every recipe below but the two memcached ones panicked in its
// constructor or in Next; NewMemcached already refused the first of
// those, and the last recipe builds.
func TestFromBuildSpecRefusesWhatPanics(t *testing.T) {
	const big = 1 << 63 // wraps to a negative int
	for _, tc := range []struct {
		bs BuildSpec
		ok bool
	}{
		{BuildSpec{Kind: "stream", U: []uint64{0, 0, 128, 0}}, false},
		{BuildSpec{Kind: "stream", U: []uint64{0, 64, 0, 0}}, false}, // stride 0 means 128
		{BuildSpec{Kind: "chaser", U: []uint64{0, 1 << 20, 0}}, false},
		{BuildSpec{Kind: "chaser", U: []uint64{0, 1 << 20, big}}, false},
		{BuildSpec{Kind: "chaser", U: []uint64{0, 32, 4}}, false}, // no whole line
		{BuildSpec{Kind: "periodic", U: []uint64{0, 1 << 20, 0, 0, 100, 100}}, false},
		{BuildSpec{Kind: "periodic", U: []uint64{0, 1 << 20, 0, 1 << 10, 0, 100}}, false},
		{BuildSpec{Kind: "bursty", U: []uint64{0, 1 << 20, 0, 10}}, false},
		{BuildSpec{Kind: "bursty", U: []uint64{0, 1 << 20, 4, big}}, false},
		{BuildSpec{Kind: "memcached", U: []uint64{0, 1 << 20, 6, 4, big, 1, 40, 20}}, false},
		{BuildSpec{Kind: "memcached", U: []uint64{0, 1 << 20, 6, 4, 4, 1, 40, 20}}, true},
	} {
		gen, err := FromBuildSpec(tc.bs)
		if (err == nil) != tc.ok || (gen != nil) != tc.ok {
			t.Errorf("%s %v: generator %v, error %v", tc.bs.Kind, tc.bs.U, gen, err)
			continue
		}
		if tc.ok {
			var op Op
			gen.Next(&op)
		}
	}
}
