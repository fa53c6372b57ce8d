package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// BenchmarkTileMissSteadyState measures the full per-cycle cost of a
// saturated single-stream system — the tile miss path (MSHR insert,
// pooled packet, per-MC ring), the front door, the controller, and the
// pooled response/release path. One op is one cycle; after warmup the
// steady state must be allocation-free.
func BenchmarkTileMissSteadyState(b *testing.B) {
	cfg := testCfg8()
	cfg.BWWindow = 1 << 40 // no series sample during the measured window
	reg := qos.NewRegistry()
	c := reg.MustAdd("solo", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
		b.Fatal(err)
	}
	if err := sys.Finalize(); err != nil {
		b.Fatal(err)
	}
	sys.Run(20_000) // settle pools, rings, and index sizing
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(uint64(b.N))
}

// BenchmarkMSHRTable measures the miss table alone at the paper's 16
// MSHRs: insert, waiter append, hit lookup, and remove (a scan that moves
// the last entry into the hole) over a rotating working set of 16
// outstanding lines, the per-miss sequence of the tile datapath.
func BenchmarkMSHRTable(b *testing.B) {
	tbl := newMSHRTable(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i)
		tbl.insert(line, line)
		if e := tbl.lookup(line); e != nil {
			e.addWaiter(line + 1)
		}
		if i >= 15 {
			tbl.remove(uint64(i - 15))
		}
	}
}
