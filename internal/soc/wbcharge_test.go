package soc

import (
	"testing"

	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// buildWBScenario reproduces Section V-C's conceptual experiment: L3Res
// dirties a cache-resident working set, ReadStream streams through DDR.
// With an UNPARTITIONED shared cache, the streamer's fills evict L3Res's
// dirty lines, producing writebacks whose billing depends on the policy.
func buildWBScenario(t *testing.T, policy qos.WBCharge, fixed mem.ClassID) (*System, *qos.Class, *qos.Class) {
	t.Helper()
	cfg := testCfg8()
	cfg.WBCharge = policy
	cfg.WBFixedClass = fixed
	reg := qos.NewRegistry()
	res := reg.MustAdd("l3res", 1, 0)  // unrestricted: shares the cache
	str := reg.MustAdd("stream", 1, 0) // unrestricted
	sys, err := New(cfg, reg, qospolicy.None)
	if err != nil {
		t.Fatal(err)
	}
	// L3Res: writes every line of a 1 MiB set — four times its 256 KiB
	// L2, so dirty lines migrate into the shared L3, and a quarter of the
	// 4 MiB L3, which would hold it alone. The set is large enough that
	// the streamer's fills evict its dirty lines before L3Res comes back
	// to them: a smaller set is re-touched too often to age out of the
	// LRU order while every load pays for its line.
	resRegion := workload.Region{Base: 1 << 40, Size: 1 << 20}
	if err := sys.Attach(0, res.ID, workload.NewStream("l3res", resRegion, 64, true)); err != nil {
		t.Fatal(err)
	}
	// ReadStream: pure reads through a huge footprint, evicting L3Res's
	// dirty lines from the shared cache.
	for i := 1; i < 4; i++ {
		if err := sys.Attach(i, str.ID, workload.NewStream("rs", tileRegion(i), 128, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, res, str
}

// sliceWB runs the scenario and returns the demand-eviction writeback
// counts billed to (l3res, stream) under the policy, over 500k cycles
// after a 750k-cycle warmup. The L3 fills cold for the first 250k cycles,
// and until about 750k the split of the evictions that follow swings
// with the scenario's shape (EXPERIMENTS.md, F6).
func sliceWB(t *testing.T, policy qos.WBCharge, fixed mem.ClassID) (resWB, strWB uint64) {
	sys, res, str := buildWBScenario(t, policy, fixed)
	billed := func() (r, s uint64) {
		for _, sl := range sys.slices {
			r += sl.WBByClass[res.ID]
			s += sl.WBByClass[str.ID]
		}
		return r, s
	}
	sys.Run(750_000)
	res0, str0 := billed()
	sys.Run(500_000)
	resWB, strWB = billed()
	resWB, strWB = resWB-res0, strWB-str0
	if resWB+strWB == 0 {
		t.Fatal("scenario produced no demand-eviction writebacks")
	}
	return resWB, strWB
}

func TestWBChargeDemanderBillsTheStreamer(t *testing.T) {
	resWB, strWB := sliceWB(t, qos.ChargeDemander, 0)
	// The streamer's fills cause most evictions of dirty lines, so it is
	// billed for most of them; l3res pays only for churn within its own
	// set.
	if strWB <= resWB {
		t.Fatalf("demander policy billed l3res %d vs streamer %d", resWB, strWB)
	}
}

func TestWBChargeOwnerBillsTheResident(t *testing.T) {
	resWB, strWB := sliceWB(t, qos.ChargeOwner, 0)
	// Every dirty victim belongs to l3res (the streamer never writes),
	// so ownership billing puts all of it on l3res.
	if strWB != 0 {
		t.Fatalf("owner policy billed %d writebacks to the read-only streamer", strWB)
	}
	if resWB == 0 {
		t.Fatal("owner policy billed nothing to the dirty-line owner")
	}
}

func TestWBChargeFixedBillsTheNominatedClass(t *testing.T) {
	resWB, strWB := sliceWB(t, qos.ChargeFixed, 1 /* the stream class */)
	if resWB != 0 {
		t.Fatalf("fixed policy leaked %d writebacks to l3res", resWB)
	}
	if strWB == 0 {
		t.Fatal("fixed policy billed nothing to the nominated class")
	}
}

func TestWBPolicyDifferential(t *testing.T) {
	// The same workload billed under the two dynamic policies must
	// attribute the dirty-victim traffic to opposite classes — the
	// unpredictability Section V-C warns about when cache is shared.
	resD, strD := sliceWB(t, qos.ChargeDemander, 0)
	resO, strO := sliceWB(t, qos.ChargeOwner, 0)
	if strD <= strO {
		t.Fatalf("streamer billing: demander %d should exceed owner %d", strD, strO)
	}
	if resO <= resD {
		t.Fatalf("l3res billing: owner %d should exceed demander %d", resO, resD)
	}
}

func TestWBChargeStringer(t *testing.T) {
	if qos.ChargeDemander.String() != "demander" || qos.ChargeOwner.String() != "owner" || qos.ChargeFixed.String() != "fixed" {
		t.Fatal("WBCharge strings wrong")
	}
}
