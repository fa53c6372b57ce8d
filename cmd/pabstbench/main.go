// Command pabstbench runs the repository's recorded benchmark suites,
// one BENCH_<suite>.json receipt each. Every timed configuration must
// also produce bit-identical simulation output to its baseline; the
// suites verify this and record the verdict per run, so each JSON
// doubles as a determinism receipt for the host it ran on.
//
// The default -suite scale times the event kernel against the
// cycle-stepped reference loop across mesh sizes, source policies and an
// MSHR-saturated mesh, and writes BENCH_scale.json.
//
// With -suite obs it measures the observability layer's
// overhead contract — probes disabled (the baseline), the event ring
// alone, and the ring plus a JSONL sink — and writes BENCH_obs.json.
// The disabled-probe run must stay fingerprint-identical to an
// instrumented run: observation never changes a simulated outcome.
//
// With -suite ckpt it measures the checkpoint subsystem — serialized
// size, save/restore latency, and the warm-start speedup of restoring a
// shared post-warmup checkpoint across a reweighted sweep — and writes
// BENCH_ckpt.json. Every warm-started run must match its cold twin
// byte-for-byte.
//
// With -suite hotpath it isolates the memory-controller datapath and
// times the indexed scheduler against the frozen pre-index scan at
// several queue depths, recording ns/cycle, allocs/cycle, and a
// service-stream fingerprint per run in BENCH_hotpath.json.
//
// Usage:
//
//	pabstbench [-suite scale|obs|ckpt|hotpath] [-quick] [-cycles n]
//	           [-warmup n] [-out file.json] [-cpuprofile f] [-memprofile f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pabst"
	"pabst/internal/cliflags"
)

func main() {
	suite := flag.String("suite", "scale", "benchmark suite: scale, obs, ckpt, or hotpath")
	cycles := flag.Uint64("cycles", 500_000, "measured cycles per run")
	warmup := flag.Uint64("warmup", 200_000, "warmup cycles per run")
	out := flag.String("out", "", "output path (default BENCH_<suite>.json)")
	quick := flag.Bool("quick", false, "scale suite: 64-tile meshes only, skip the full-suite speedup gates")
	common := cliflags.Register(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	defer profiles(*cpuprofile, *memprofile)()
	if _, _, err := common.Validate(); err != nil {
		check(err)
	}

	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	switch *suite {
	case "scale":
		scaleSuite(*cycles, true, *quick, *out)
	case "obs":
		obsSuite(*warmup, *cycles, *out)
	case "ckpt":
		ckptSuite(*warmup, *cycles, *out)
	case "hotpath":
		hotpathSuite(*warmup, *cycles, *out)
	default:
		fmt.Fprintf(os.Stderr, "pabstbench: unknown -suite %q (want scale, obs, ckpt, or hotpath)\n", *suite)
		os.Exit(2)
	}
}

// streamSystem is the Figure 5 scenario: two 16-core stream classes at a
// 7:3 allocation, saturating the memory system.
func streamSystem(cfg pabst.SystemConfig, opts ...pabst.Option) (*pabst.System, []pabst.ClassID) {
	b := pabst.NewBuilder(cfg, pabst.ModePABST, opts...)
	hi := b.AddClass("hi", 7, cfg.L3Ways/2)
	lo := b.AddClass("lo", 3, cfg.L3Ways/2)
	for i := 0; i < 16; i++ {
		b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		b.Attach(16+i, lo, pabst.Stream("lo", pabst.TileRegion(16+i), 128, false))
	}
	sys, err := b.Build()
	check(err)
	return sys, []pabst.ClassID{hi, lo}
}

// fingerprint renders the run's observable statistics for byte-for-byte
// comparison across a suite's configurations.
func fingerprint(sys *pabst.System, classes []pabst.ClassID) string {
	snap := sys.Snapshot()
	s := fmt.Sprintf("metrics=%+v gov=%v", snap.Window, snap.GovernorMs())
	for _, c := range classes {
		cs := snap.Class(c)
		s += fmt.Sprintf(" c%d=%v/%v/%v", c, cs.IPC, cs.TileIPCs, cs.MissLatency)
	}
	return s
}

// ObsRun is one timed observability configuration.
type ObsRun struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// Overhead is wall-clock relative to the probes-off baseline
	// (0.02 = 2% slower). The acceptance budget for the disabled path
	// is <= 2%.
	Overhead float64 `json:"overhead"`
	// Events is the number of trace events emitted (0 when disabled).
	Events uint64 `json:"events"`
	// Identical reports whether the run's metric fingerprint matched the
	// probes-off baseline — observation must never perturb the simulation.
	Identical bool `json:"identical"`
}

// ObsReport is the BENCH_obs.json document. It is self-contained (own
// run type, own fields) so changes to another suite's report never
// invalidate recorded observability baselines.
type ObsReport struct {
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
	} `json:"host"`
	Cycles uint64   `json:"cycles"`
	Warmup uint64   `json:"warmup"`
	Runs   []ObsRun `json:"runs"`
}

// obsSuite times the Figure 5 stream scenario with probes off, with the
// event ring alone, and with the ring feeding a JSONL sink, verifying
// that every variant produces the same metric fingerprint.
func obsSuite(warmup, cycles uint64, out string) {
	var rep ObsReport
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Cycles = cycles
	rep.Warmup = warmup

	variants := []struct {
		name string
		obs  func() *pabst.Observer
	}{
		{name: "probes-off (baseline)", obs: func() *pabst.Observer { return nil }},
		{name: "observer-ring", obs: func() *pabst.Observer { return pabst.NewObserver(0) }},
		{name: "observer-ring+jsonl", obs: func() *pabst.Observer {
			return pabst.NewObserver(0, pabst.NewJSONLSink(io.Discard))
		}},
	}

	var baseFP string
	var baseWall float64
	for i, v := range variants {
		cfg := pabst.Default32Config()
		cfg.PABST.EpochCycles = 10_000
		observer := v.obs()
		sys, classes := streamSystem(cfg, pabst.WithObserver(observer))
		start := time.Now()
		sys.Warmup(warmup)
		sys.Run(cycles)
		wall := time.Since(start).Seconds()
		fp := fingerprint(sys, classes)
		sys.Close()
		if i == 0 {
			baseFP, baseWall = fp, wall
		}
		rep.Runs = append(rep.Runs, ObsRun{
			Name:        v.name,
			WallSeconds: wall,
			Overhead:    wall/baseWall - 1,
			Events:      observer.Total(),
			Identical:   fp == baseFP,
		})
	}

	b, err := json.MarshalIndent(&rep, "", "  ")
	check(err)
	check(os.WriteFile(out, append(b, '\n'), 0o644))
	fmt.Printf("wrote %s\n", out)
	for _, r := range rep.Runs {
		same := "identical"
		if !r.Identical {
			same = "OUTPUT DIVERGED"
		}
		fmt.Printf("%-26s %8.2fs  %+6.2f%%  %8d events  %s\n",
			r.Name, r.WallSeconds, 100*r.Overhead, r.Events, same)
	}
}

// profiles starts a CPU profile (if requested) and returns the function
// that stops it and snapshots the heap (if requested). It runs via defer
// on the normal exit path; error exits through check() skip it, which is
// fine — a failed run's profile is not interesting.
func profiles(cpu, heap string) func() {
	var cf *os.File
	if cpu != "" {
		var err error
		cf, err = os.Create(cpu)
		check(err)
		check(pprof.StartCPUProfile(cf))
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			check(cf.Close())
		}
		if heap != "" {
			f, err := os.Create(heap)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabstbench: %v\n", err)
		os.Exit(1)
	}
}
