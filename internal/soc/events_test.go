package soc

import (
	"fmt"
	"strings"
	"testing"

	"pabst/internal/config"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// fingerprint renders every externally observable statistic of a run so
// two runs can be compared byte-for-byte.
func fingerprint(sys *System, classes ...mem.ClassID) string {
	var b strings.Builder
	sn := sys.Snapshot()
	fmt.Fprintf(&b, "metrics=%+v\n", sn.Window)
	for _, c := range classes {
		cs := sn.Class(c)
		fmt.Fprintf(&b, "class=%d ipc=%v tiles=%v missLat=%v mcLat=%v occ=%d\n",
			c, cs.IPC, cs.TileIPCs, cs.MissLatency, cs.MCReadLatency, cs.L3OccupancyBytes)
	}
	fmt.Fprintf(&b, "gov=%v\n", sn.GovernorMs())
	r, w, q := mcTotals(sys)
	fmt.Fprintf(&b, "mc=%d/%d/%d\n", r, w, q)
	return b.String()
}

// classOf reads one class out of a fresh snapshot.
func classOf(sys *System, c mem.ClassID) *ClassSnapshot {
	sn := sys.Snapshot()
	return sn.Class(c)
}

// mcTotals sums the controllers' lifetime reads and writes and their
// current front-end read queue depths.
func mcTotals(sys *System) (reads, writes uint64, queuedReads int) {
	for _, mc := range sys.Snapshot().MCs {
		reads += mc.Reads
		writes += mc.Writes
		queuedReads += mc.QueuedReads
	}
	return
}

// burstySystem builds a system whose tiles alternate short demand bursts
// with long idle gaps — the workload shape the event kernel skips
// through.
func burstySystem(t *testing.T, cfg config.System) (*System, mem.ClassID) {
	t.Helper()
	reg := qos.NewRegistry()
	c := reg.MustAdd("bursty", 1, cfg.L3Ways)
	sys, err := New(cfg, reg, qospolicy.PABST)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NumTiles(); i++ {
		gen := workload.NewBursty("b", tileRegion(i), 32, 4000, uint64(i)+1)
		if err := sys.Attach(i, c.ID, gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, c.ID
}

// TestEventKernelBitIdentical asserts the event-kernel tentpole at the
// system level: per-component event dispatch produces byte-identical
// statistics to the cycle-stepped reference loop on a saturated machine,
// and the default configuration selects it.
func TestEventKernelBitIdentical(t *testing.T) {
	run := func(kernel string) string {
		cfg := testCfg()
		cfg.Kernel = kernel
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		if sys.evOn != (kernel != config.KernelCycle) {
			t.Fatalf("Kernel=%q: event mode = %v", kernel, sys.evOn)
		}
		sys.Warmup(10000)
		sys.Run(40000)
		return fingerprint(sys, hi.ID, lo.ID)
	}
	want := run(config.KernelCycle)
	for _, kernel := range []string{"", config.KernelEvent} {
		if got := run(kernel); got != want {
			t.Errorf("Kernel=%q diverged from the reference loop:\n--- cycle\n%s--- event\n%s", kernel, want, got)
		}
	}
}

// TestEventKernelBursty pins the event kernel on the idle-heavy shape it
// exists for: identical statistics to the reference loop, which skips
// nothing, with a meaningful share of cycles skipped.
func TestEventKernelBursty(t *testing.T) {
	run := func(kernel string) (string, uint64) {
		cfg := testCfg()
		cfg.Kernel = kernel
		sys, c := burstySystem(t, cfg)
		sys.Run(120000)
		return fingerprint(sys, c), sys.Snapshot().SkippedCycles
	}
	spin, skipped0 := run("cycle")
	ev, skipped := run("event")
	if skipped0 != 0 {
		t.Fatalf("reference loop reported %d skipped cycles", skipped0)
	}
	if spin != ev {
		t.Errorf("event kernel diverged on bursty workload:\n--- cycle\n%s--- event\n%s", spin, ev)
	}
	if skipped == 0 {
		t.Errorf("bursty workload skipped no cycles — event kernel never jumped the clock")
	}
	t.Logf("event kernel skipped %d of 120000 cycles", skipped)
}

// TestEventKernelWithFaults runs the event kernel under an active fault
// plan: per-sender fault streams must draw identically under event
// dispatch, and no wake may target an already-drained class.
func TestEventKernelWithFaults(t *testing.T) {
	run := func(kernel string) string {
		cfg := testCfg()
		cfg.Kernel = kernel
		cfg.Faults = &fault.Plan{
			SAT:  fault.SATPlan{DropProb: 0.1, DelayCycles: 500, DelayJitter: 1000},
			DRAM: fault.DRAMPlan{StallProb: 0.05, StallCycles: 1000},
			NoC:  fault.NoCPlan{DelayProb: 0.01, DelayCycles: 100},
		}
		sys, hi, lo := twoClassStreams(t, cfg, qospolicy.PABST, 7, 3, 8, 8)
		sys.Run(40000)
		if lw := sys.Snapshot().LateWakes; lw != 0 {
			t.Fatalf("%d late wakes with kernel=%s", lw, kernel)
		}
		return fingerprint(sys, hi.ID, lo.ID)
	}
	if want, got := run("cycle"), run("event"); got != want {
		t.Errorf("faulted event run diverged:\n--- cycle\n%s--- event\n%s", want, got)
	}
}
