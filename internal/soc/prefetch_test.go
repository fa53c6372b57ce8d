package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

func buildPrefetchRun(t *testing.T, depth int, gen workload.Generator) *System {
	t.Helper()
	cfg := testCfg8()
	cfg.PrefetchDepth = depth
	reg := qos.NewRegistry()
	c := reg.MustAdd("c", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, gen); err != nil {
		t.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPrefetcherHelpsSequentialStream pins the prefetcher's purpose: a
// sequential reader retires more work because the next lines are already
// inbound when it reaches them.
func TestPrefetcherHelpsSequentialStream(t *testing.T) {
	// Dependent sequential walker at 64 B so every line is touched and
	// each access waits for the previous (latency-exposed).
	mkGen := func() workload.Generator {
		s := NewSeqChain()
		return s
	}
	off := buildPrefetchRun(t, 0, mkGen())
	off.Run(100_000)
	on := buildPrefetchRun(t, 4, mkGen())
	on.Run(100_000)

	offOps := off.tiles[0].Core().OpsRetired()
	onOps := on.tiles[0].Core().OpsRetired()
	if onOps < offOps*3/2 {
		t.Fatalf("prefetch depth 4 lifted a dependent sequential walker only %d -> %d ops", offOps, onOps)
	}
	if on.tiles[0].prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
}

// TestPrefetchTrafficIsBilledToTheClass checks that speculative fills
// count against the class's bandwidth like demand fills.
func TestPrefetchTrafficIsBilledToTheClass(t *testing.T) {
	sys := buildPrefetchRun(t, 4, NewSeqChain())
	sys.Run(100_000)
	sn := sys.Snapshot()
	m := sn.Window
	reads, _, _ := mcTotals(sys)
	if reads*64 != m.BytesByClass[0] {
		t.Fatalf("read bytes %d not fully billed to the class (%d)", reads*64, m.BytesByClass[0])
	}
	// With depth 4 and a sequential walker, almost every line arrives
	// via prefetch.
	if sys.tiles[0].prefetches < uint64(reads)/2 {
		t.Fatalf("only %d of %d reads were prefetches", sys.tiles[0].prefetches, reads)
	}
}

// TestPrefetchRespectsMSHRBound keeps the structural limit intact.
func TestPrefetchRespectsMSHRBound(t *testing.T) {
	sys := buildPrefetchRun(t, 8, workload.NewChaser("c", tileRegion(0), 8, 3))
	cfg := testCfg8()
	for i := 0; i < 3000; i++ {
		sys.Run(1)
		if n := sys.tiles[0].mshr.len(); n > cfg.MaxMSHRs {
			t.Fatalf("MSHRs %d exceed %d with prefetching", n, cfg.MaxMSHRs)
		}
	}
}

// TestPrefetchKeepsProportions checks the QoS interaction: because
// speculative fills ride the paced miss path, enabling prefetching does
// not let a class exceed its share.
func TestPrefetchKeepsProportions(t *testing.T) {
	cfg := testCfg()
	cfg.PrefetchDepth = 4
	sys, hi, _ := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 16, 16)
	sys.Warmup(150_000)
	sys.Run(150_000)
	if sh := sys.Metrics().ShareOf(hi.ID); sh < 0.62 || sh > 0.78 {
		t.Fatalf("prefetching broke the 7:3 split: hi share %.2f", sh)
	}
}

// seqChain is a strictly dependent sequential line walker: op i+1 waits
// for op i and touches the next line, the best case for a next-line
// prefetcher and the worst case for an unprefetched memory system.
type seqChain struct {
	line uint64
}

// NewSeqChain returns the walker.
func NewSeqChain() workload.Generator { return &seqChain{} }

func (s *seqChain) Name() string { return "seqchain" }
func (s *seqChain) Next(op *workload.Op) {
	*op = workload.Op{
		Addr:      tileRegion(0).Base + workload.Region{Base: 0, Size: 64 << 20}.LineAt(s.line),
		DependsOn: 1,
		Gap:       1,
		Insts:     4,
	}
	s.line++
}
