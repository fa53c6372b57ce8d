package soc

import (
	"testing"

	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/stats"
	"pabst/internal/workload"
)

// TestBurstCreditHelpsBurstyTraffic validates the pacer's burst-credit
// design (Section III-B3 and the MITTS comparison in related work): a
// bursty low-share workload under PABST completes its bursts much faster
// when the pacer banks idle credit than when every request is strictly
// paced — at the same long-run allocation.
func TestBurstCreditHelpsBurstyTraffic(t *testing.T) {
	run := func(burstCredit int) (meanBurst float64, bursts uint64) {
		cfg := testCfg()
		cfg.PABST.BurstCredit = burstCredit
		reg := qos.NewRegistry()
		// Bursty class holds a modest share; a backlogged streamer class
		// keeps the governors throttling.
		bc := reg.MustAdd("bursty", 1, cfg.L3Ways/2)
		st := reg.MustAdd("stream", 3, cfg.L3Ways/2)
		sys, err := New(cfg, reg, qospolicy.PABST)
		if err != nil {
			t.Fatal(err)
		}
		var gens []*workload.Bursty
		for i := 0; i < 16; i++ {
			// Bursts of 12 with long idle: average demand well under the
			// class share, so credit should bank between bursts.
			gen := workload.NewBursty("b", tileRegion(i), 12, 2000, uint64(i)+1)
			gens = append(gens, gen)
			if err := sys.Attach(i, bc.ID, gen); err != nil {
				t.Fatal(err)
			}
		}
		for i := 16; i < 32; i++ {
			if err := sys.Attach(i, st.ID, workload.NewStream("s", tileRegion(i), 128, false)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Finalize(); err != nil {
			t.Fatal(err)
		}
		sys.Warmup(150_000)
		for _, g := range gens {
			g.ResetStats()
		}
		sys.Run(150_000)
		var all stats.Hist
		for _, g := range gens {
			all.Merge(g.BurstTimes())
		}
		return all.Mean(), all.Count()
	}

	latStrict, n1 := run(1)
	latBurst, n2 := run(16)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("no bursts completed (%d, %d)", n1, n2)
	}
	// With banked credit a 12-op burst clears in roughly one memory
	// round trip; strictly paced it serializes at the full inter-request
	// period (~100 cycles x 12).
	if latBurst > 0.6*latStrict {
		t.Fatalf("burst credit cut burst completion only %.0f -> %.0f cycles", latStrict, latBurst)
	}
}
