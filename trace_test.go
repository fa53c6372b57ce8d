package pabst_test

import (
	"bytes"
	"fmt"
	"testing"

	"pabst"
)

// traceConfig is a small, fast system with short epochs so traces carry
// a few dozen epochs in well under a second.
func traceConfig() pabst.SystemConfig {
	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	return cfg
}

// runTrace builds the bursty two-class scenario (idle gaps make the
// event kernel actually skip) with a JSONL observer on the named kernel,
// runs it, and returns the trace bytes.
func runTrace(t *testing.T, kernel string) []byte {
	t.Helper()
	var buf bytes.Buffer
	observer := pabst.NewObserver(0, pabst.NewJSONLSink(&buf))
	cfg := traceConfig()
	b := pabst.NewBuilder(cfg, pabst.ModePABST,
		pabst.WithKernel(kernel), pabst.WithObserver(observer))
	hi := b.AddClass("hi", 7, cfg.L3Ways/2)
	lo := b.AddClass("lo", 3, cfg.L3Ways/2)
	for i := 0; i < 8; i++ {
		b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		b.Attach(16+i, lo, pabst.BurstyTraffic("lo", pabst.TileRegion(16+i), 32, 4000, uint64(i)+1))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(60_000)
	if err := observer.Flush(); err != nil {
		t.Fatal(err)
	}
	if observer.Total() == 0 {
		t.Fatal("observer saw no events")
	}
	return buf.Bytes()
}

// TestGoldenTraceDeterminism is the observability determinism contract:
// trace bytes are identical on the reference loop and the default event
// kernel, because events are emitted only from the epoch hook, in a
// fixed order, after every component has been caught up.
func TestGoldenTraceDeterminism(t *testing.T) {
	golden := runTrace(t, "cycle")
	if got := runTrace(t, ""); !bytes.Equal(got, golden) {
		t.Errorf("default-kernel trace diverged from the reference loop's (%d vs %d bytes)",
			len(got), len(golden))
	}
}

// TestObserverDoesNotPerturb: arming an observer must not change any
// simulated outcome — metric fingerprints match a probe-free run.
func TestObserverDoesNotPerturb(t *testing.T) {
	run := func(observer *pabst.Observer) string {
		cfg := traceConfig()
		b := pabst.NewBuilder(cfg, pabst.ModePABST, pabst.WithObserver(observer))
		hi := b.AddClass("hi", 7, cfg.L3Ways/2)
		lo := b.AddClass("lo", 3, cfg.L3Ways/2)
		for i := 0; i < 8; i++ {
			b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
			b.Attach(16+i, lo, pabst.Stream("lo", pabst.TileRegion(16+i), 128, false))
		}
		sys, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(50_000)
		snap := sys.Snapshot()
		return fmt.Sprintf("%+v gov=%v", sys.Metrics(), snap.GovernorMs())
	}
	off := run(nil)
	on := run(pabst.NewObserver(64))
	if off != on {
		t.Errorf("observer perturbed the simulation:\n off %s\n on  %s", off, on)
	}
}

// TestDisabledProbesZeroAlloc asserts the zero-overhead contract's
// allocation half: with no observer armed, the tick hot path — including
// epoch boundaries — allocates nothing. A quiescent system isolates the
// kernel + probe path from workload-driven allocation.
func TestDisabledProbesZeroAlloc(t *testing.T) {
	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = 64
	cfg.BWWindow = 1 << 40 // no series sample during the measured run
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	b.AddClass("idle", 1, cfg.L3Ways)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(1000) // settle any first-use allocation
	allocs := testing.AllocsPerRun(10, func() { sys.Run(640) })
	if allocs != 0 {
		t.Errorf("disabled-probe tick path allocates: %v allocs per 640 cycles (10 epochs)", allocs)
	}
}

// TestSnapshotConsistency pins the Snapshot contract now that the
// per-facet accessors are gone: one Snapshot call captures a coherent
// view whose facets agree with each other and with the live system.
func TestSnapshotConsistency(t *testing.T) {
	cfg := traceConfig()
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := b.AddClass("hi", 7, cfg.L3Ways/2)
	lo := b.AddClass("lo", 3, cfg.L3Ways/2)
	for i := 0; i < 8; i++ {
		b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		b.Attach(16+i, lo, pabst.Stream("lo", pabst.TileRegion(16+i), 128, false))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(50_000)

	snap := sys.Snapshot()
	if snap.Cycle != sys.Now() {
		t.Errorf("Cycle = %d, want %d", snap.Cycle, sys.Now())
	}
	if got, want := snap.Window, sys.Metrics(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("Window %+v != live Metrics %+v", got, want)
	}
	for _, c := range []pabst.ClassID{hi, lo} {
		cs := snap.Class(c)
		if cs == nil {
			t.Fatalf("class %d missing from snapshot", c)
		}
		if len(cs.TileIPCs) != 8 {
			t.Errorf("class %d TileIPCs length %d, want 8 (one per attached tile)", c, len(cs.TileIPCs))
		}
		// The class IPC is defined as the mean over the class's tiles.
		var sum float64
		for _, v := range cs.TileIPCs {
			sum += v
		}
		if mean := sum / float64(len(cs.TileIPCs)); cs.IPC != mean {
			t.Errorf("class %d IPC %v != mean(TileIPCs) %v", c, cs.IPC, mean)
		}
		if cs.IPC <= 0 {
			t.Errorf("class %d IPC %v, want > 0 after a loaded run", c, cs.IPC)
		}
		if cs.MissLatency <= 0 || cs.MCReadLatency <= 0 {
			t.Errorf("class %d latencies (%v, %v), want > 0", c, cs.MissLatency, cs.MCReadLatency)
		}
		if cs.L3OccupancyBytes == 0 {
			t.Errorf("class %d L3 occupancy 0 after a streaming run", c)
		}
	}
	// Entitled shares derive from the 7:3 weights regardless of traffic.
	if got := snap.Class(hi).EntitledShare; got != 0.7 {
		t.Errorf("hi entitled share %v, want 0.7", got)
	}
	if got := snap.Class(lo).EntitledShare; got != 0.3 {
		t.Errorf("lo entitled share %v, want 0.3", got)
	}
	if len(snap.MCs) != cfg.NumMCs {
		t.Fatalf("MCs length %d != NumMCs %d", len(snap.MCs), cfg.NumMCs)
	}
	for i := range snap.MCs {
		if u := snap.MCs[i].Utilization; u < 0 || u > 1 {
			t.Errorf("MC %d utilization %v outside [0,1]", i, u)
		}
	}
	// GovernorMs mirrors the per-tile governor facet, in tile order.
	gm := snap.GovernorMs()
	var want []uint64
	for i := 0; i < cfg.NumTiles(); i++ {
		if ts := snap.Tile(i); ts != nil && ts.Governor.OK {
			want = append(want, ts.Governor.M)
		}
	}
	if len(gm) != len(want) {
		t.Fatalf("GovernorMs length %d != %d governed tiles", len(gm), len(want))
	}
	for i := range gm {
		if gm[i] != want[i] {
			t.Errorf("GovernorMs[%d] = %d != Tile governor M %d", i, gm[i], want[i])
		}
	}
	ts := snap.Tile(0)
	if ts == nil || !ts.Governor.OK {
		t.Fatal("tile 0 governor missing")
	}
	if snap.Tile(10) != nil {
		t.Error("idle tile 10 present in snapshot")
	}
	if snap.Class(99) != nil {
		t.Error("unknown class present in snapshot")
	}
}
