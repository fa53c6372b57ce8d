package dram

import (
	"math/rand"
	"testing"

	"pabst/internal/mem"
)

// BenchmarkControllerSaturated measures the controller's per-cycle cost
// with a continuously full read queue (the common case in the PABST
// experiments).
func BenchmarkControllerSaturated(b *testing.B) {
	cfg := testCfg()
	mc, _ := NewController(0, cfg, func(*mem.Packet, uint64) {})
	seq := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		for mc.TryReserveRead() {
			p := &mem.Packet{Addr: lineOnBank(cfg, seq%cfg.Banks, seq/cfg.Banks%64), Kind: mem.Read}
			seq++
			mc.ArriveRead(p, now)
		}
		mc.Tick(now)
	}
}

// BenchmarkControllerIdle measures the fast path when nothing is queued.
func BenchmarkControllerIdle(b *testing.B) {
	mc, _ := NewController(0, testCfg(), func(*mem.Packet, uint64) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Tick(uint64(i))
	}
}

// benchIndexed drives the indexed controller with pooled packets under
// EDF at one front-end queue depth. One iteration is one cycle; with the
// pool in the loop the steady state must report 0 allocs/op.
func benchIndexed(b *testing.B, depth int) {
	cfg := testCfg()
	cfg.FrontReadQ = depth
	var pool mem.Pool
	mc, _ := NewController(0, cfg, func(p *mem.Packet, _ uint64) { pool.Put(p) })
	mc.SetScheduler(SchedEDF, &diffArbiter{rng: rand.New(rand.NewSource(7))})
	mc.SetReleaser(pool.Put)
	pool.Grow(depth + cfg.FrontWriteQ)
	seq := 0
	drive := func(now uint64) {
		for mc.TryReserveRead() {
			p := pool.Get()
			p.Addr = lineOnBank(cfg, seq%cfg.Banks, seq/cfg.Banks%4)
			p.Kind = mem.Read
			seq++
			mc.ArriveRead(p, now)
		}
		if seq%7 == 0 && mc.TryReserveWrite() {
			p := pool.Get()
			p.Addr = lineOnBank(cfg, seq%cfg.Banks, 0)
			p.Kind = mem.Writeback
			mc.ArriveWrite(p, now)
		}
		mc.Tick(now)
	}
	for now := uint64(0); now < 4096; now++ { // settle pool and index sizing
		drive(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(4096 + uint64(i))
	}
}

// BenchmarkPickIssueDepth* measure the EDF datapath (issueRead) at
// front-end queue depths 8, 32 and 128.
func BenchmarkPickIssueDepth8(b *testing.B)   { benchIndexed(b, 8) }
func BenchmarkPickIssueDepth32(b *testing.B)  { benchIndexed(b, 32) }
func BenchmarkPickIssueDepth128(b *testing.B) { benchIndexed(b, 128) }

// BenchmarkScanReferenceDepth128 is the frozen pre-index scan on the
// same traffic shape, so `go test -bench 'PickIssueDepth128|ScanReference'`
// shows the index's effect.
func BenchmarkScanReferenceDepth128(b *testing.B) {
	cfg := testCfg()
	cfg.FrontReadQ = 128
	ref := NewRefController(cfg, func(*mem.Packet, uint64) {})
	ref.SetScheduler(SchedEDF, &diffArbiter{rng: rand.New(rand.NewSource(7))})
	seq := 0
	drive := func(now uint64) {
		for ref.QueuedReads() < cfg.FrontReadQ {
			p := &mem.Packet{Addr: lineOnBank(cfg, seq%cfg.Banks, seq/cfg.Banks%4), Kind: mem.Read}
			seq++
			ref.ArriveRead(p, now)
		}
		if seq%7 == 0 && ref.QueuedWrites() < cfg.FrontWriteQ {
			ref.ArriveWrite(&mem.Packet{Addr: lineOnBank(cfg, seq%cfg.Banks, 0), Kind: mem.Writeback}, now)
		}
		ref.Tick(now)
	}
	for now := uint64(0); now < 4096; now++ {
		drive(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(4096 + uint64(i))
	}
}
